package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"pimsim/internal/addr"
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
)

// svm is SVM-RFE of §5.3: the kernel computes dot products between one
// hyperplane vector w (hot, register/cache resident) and a large number
// of input vectors x_i (streamed). Every 4-dimension double-precision
// chunk of an instance is one dot-product PEI: target = the x chunk in
// memory, input operand = the matching w chunk. Partial dot products are
// summed host-side into the per-instance kernel value.
//
// The paper uses the ovarian-cancer microarray dataset (§6.2); we
// substitute synthetic dense vectors with the same instance counts and a
// scaled feature count (DESIGN.md §3) — the access pattern depends only
// on the shape.
type svm struct {
	phaseCtl
	p Params

	instances, features int
	xBase               uint64
	wVec                []float64

	// partials[i*features/4+c] is instance i's chunk-c dot product,
	// written by the streams' Sink under that index as tag and folded in
	// chunk order at Verify (so the summation order matches the golden
	// implementation regardless of PEI completion order).
	partials []float64
}

func newSVM(p Params) *svm { return &svm{p: p} }

func (w *svm) shape() (instances, features int) {
	switch w.p.Size {
	case Small:
		instances = 50
	case Medium:
		instances = 130
	default:
		instances = 253
	}
	// Ovarian cancer dataset has 15154 features; scale them down but
	// keep whole 8-double blocks.
	features = 15154 / w.p.Scale
	if features < 64 {
		features = 64
	}
	features &^= 7
	return
}

func (w *svm) x(i, f int) float64 {
	h := uint64(i)*2862933555777941757 + uint64(f)*3202034522624059733 + uint64(w.p.Seed)
	return float64(int64(h%2048)-1024) / 256.0
}

func (w *svm) xAddr(i, f int) uint64 {
	return w.xBase + uint64((i*w.features+f)*8)
}

func (w *svm) Streams(m *machine.Machine) []cpu.Stream {
	w.instances, w.features = w.shape()
	w.xBase = m.Store.Alloc(w.instances*w.features*8, addr.BlockBytes)
	for i := 0; i < w.instances; i++ {
		for f := 0; f < w.features; f++ {
			m.Store.WriteF64(w.xAddr(i, f), w.x(i, f))
		}
	}
	w.wVec = make([]float64, w.features)
	for f := range w.wVec {
		w.wVec[f] = float64(int64(uint64(f)*0x9E3779B97F4A7C15%512)-256) / 128.0
	}

	// The w chunks are the PEIs' vector operands, encoded once:
	// vectors[c] is chunk c.
	chunks := w.features / 4
	vectors := make([][]byte, chunks)
	enc := make([]byte, chunks*32)
	for c := range vectors {
		vec := enc[c*32:][:32]
		for d := 0; d < 4; d++ {
			binary.LittleEndian.PutUint64(vec[d*8:], math.Float64bits(w.wVec[c*4+d]))
		}
		vectors[c] = vec
	}

	w.partials = make([]float64, w.instances*chunks)
	w.initPhases(1, nil)
	w.snapExtra = func(c *snap.Coder) {
		for i := range w.partials {
			c.F64(&w.partials[i])
		}
	}
	streams := make([]cpu.Stream, w.p.Threads)
	for t := 0; t < w.p.Threads; t++ {
		lo, hi := PartitionRange(w.instances, w.p.Threads, t)
		budget := w.p.OpBudget
		d := &roundDriver{
			budget: &budget,
			rounds: 1,
			items:  hi - lo,
			perItem: func(q *cpu.Queue, _, i int) {
				inst := lo + i
				for c := 0; c < chunks; c++ {
					q.PushPEI(pim.OpDotProduct, w.xAddr(inst, c*4), uint64(c), uint32(inst*chunks+c))
				}
				q.PushCompute(2)
			},
		}
		streams[t] = w.addDriver(d).stream()
		streams[t].Sink = w
		streams[t].Vectors = vectors
	}
	return streams
}

// PEIDone stores a chunk's dot product under its tag.
func (w *svm) PEIDone(p *pim.PEI) {
	w.partials[p.Tag] = math.Float64frombits(binary.LittleEndian.Uint64(p.Output))
}

// Verify computes the golden dot products — accumulated exactly as the
// PEIs do, 4-dim chunks in order — here rather than at build, so
// budget-limited runs, which never verify, do not pay for them.
func (w *svm) Verify(m *machine.Machine) error {
	chunks := w.features / 4
	for i := 0; i < w.instances; i++ {
		var want float64
		for c := 0; c < chunks; c++ {
			var sum float64
			for d := 0; d < 4; d++ {
				f := c*4 + d
				sum += w.x(i, f) * w.wVec[f]
			}
			want += sum
		}
		var dot float64
		for _, p := range w.partials[i*chunks:][:chunks] {
			dot += p
		}
		if dot != want {
			return fmt.Errorf("svm: dot[%d] = %g, want %g", i, dot, want)
		}
	}
	return nil
}
