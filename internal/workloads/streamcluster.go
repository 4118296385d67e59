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

// streamcluster is SC of §5.3: online clustering whose kernel computes
// Euclidean distances from a few cluster centers to many data points.
// Each 16-dimension chunk of a point is one Euclidean-distance PEI whose
// target block holds the point chunk and whose input operand carries the
// center chunk (centers are few and register-resident). Points with more
// than 16 dimensions issue one PEI per chunk and the squared partial
// distances are summed host-side.
type streamcluster struct {
	phaseCtl
	p Params

	points, dims, centers int
	pointBase             uint64
	centerVecs            [][]float32

	// partial[(p*centers+c)*chunks+ch] holds point p's chunk-ch distance
	// to center c, written by the streams' Sink under that index as tag
	// and folded in chunk order at Verify so float summation matches the
	// golden implementation.
	partial []float32
}

func newStreamcluster(p Params) *streamcluster { return &streamcluster{p: p} }

func (w *streamcluster) shape() (points, dims int) {
	switch w.p.Size {
	case Small:
		points, dims = 4096, 32
	case Medium:
		points, dims = 65536, 128
	default:
		points, dims = 1<<20, 128
	}
	points /= w.p.Scale
	if points < 64 {
		points = 64
	}
	return
}

func (w *streamcluster) coord(p, d int) float32 {
	h := uint64(p)*6364136223846793005 + uint64(d)*1442695040888963407 + uint64(w.p.Seed)
	return float32(h%1024) / 32.0
}

func (w *streamcluster) pointAddr(p, chunk int) uint64 {
	chunks := w.dims / 16
	return w.pointBase + uint64((p*chunks+chunk)*addr.BlockBytes)
}

func (w *streamcluster) Streams(m *machine.Machine) []cpu.Stream {
	w.points, w.dims = w.shape()
	w.centers = 8
	if w.centers > w.points {
		w.centers = w.points
	}
	chunks := w.dims / 16
	w.pointBase = m.Store.Alloc(w.points*chunks*addr.BlockBytes, addr.BlockBytes)
	for p := 0; p < w.points; p++ {
		for d := 0; d < w.dims; d++ {
			m.Store.WriteF32(w.pointAddr(p, d/16)+uint64(d%16*4), w.coord(p, d))
		}
	}
	// Centers are the first k points, register-resident during the scan.
	w.centerVecs = make([][]float32, w.centers)
	for c := range w.centerVecs {
		vec := make([]float32, w.dims)
		for d := 0; d < w.dims; d++ {
			vec[d] = w.coord(c*(w.points/w.centers), d)
		}
		w.centerVecs[c] = vec
	}

	// The center chunks are the PEIs' vector operands, encoded once:
	// vectors[c*chunks+ch] is center c's chunk ch.
	vectors := make([][]byte, w.centers*chunks)
	enc := make([]byte, len(vectors)*64)
	for c := range w.centerVecs {
		for ch := 0; ch < chunks; ch++ {
			vec := enc[(c*chunks+ch)*64:][:64]
			for d := 0; d < 16; d++ {
				binary.LittleEndian.PutUint32(vec[d*4:], math.Float32bits(w.centerVecs[c][ch*16+d]))
			}
			vectors[c*chunks+ch] = vec
		}
	}

	w.partial = make([]float32, w.points*w.centers*chunks)
	w.initPhases(w.centers, nil)
	// The chunk distances live host-side (the streams' Sink); the shape
	// is deterministic, so values stream without lengths.
	w.snapExtra = func(c *snap.Coder) {
		for i := range w.partial {
			c.F32(&w.partial[i])
		}
	}
	streams := make([]cpu.Stream, w.p.Threads)
	for t := 0; t < w.p.Threads; t++ {
		lo, hi := PartitionRange(w.points, w.p.Threads, t)
		budget := w.p.OpBudget
		// Loop order follows the application: one pass over all points
		// per candidate center (the point set far exceeds the caches, so
		// every pass re-streams it — the behaviour behind the paper's
		// Figure 7 SC numbers and the §7.4 bandwidth-balance discussion).
		d := &roundDriver{
			budget: &budget,
			rounds: w.centers,
			items:  hi - lo,
			perItem: func(q *cpu.Queue, c, i int) {
				p := lo + i
				for ch := 0; ch < chunks; ch++ {
					tag := (p*w.centers+c)*chunks + ch
					q.PushPEI(pim.OpEuclideanDist, w.pointAddr(p, ch), uint64(c*chunks+ch), uint32(tag))
				}
				q.PushCompute(4) // running-min bookkeeping
			},
		}
		streams[t] = w.addDriver(d).stream()
		streams[t].Sink = w
		streams[t].Vectors = vectors
	}
	return streams
}

// PEIDone stores a chunk distance under its tag.
func (w *streamcluster) PEIDone(p *pim.PEI) {
	w.partial[p.Tag] = math.Float32frombits(binary.LittleEndian.Uint32(p.Output))
}

// Verify computes the golden assignment — nearest center per point,
// accumulated exactly as the PEI does (float32, per-16-dim chunk) so
// results are bit-identical — here rather than at build, so
// budget-limited runs, which never verify, do not pay for it.
func (w *streamcluster) Verify(m *machine.Machine) error {
	chunks := w.dims / 16
	dists := make([]float32, w.centers)
	for p := 0; p < w.points; p++ {
		for c := range w.centerVecs {
			var total float32
			for ch := 0; ch < chunks; ch++ {
				var sum float32
				for d := 0; d < 16; d++ {
					diff := w.coord(p, ch*16+d) - w.centerVecs[c][ch*16+d]
					sum += diff * diff
				}
				total += sum
			}
			dists[c] = total
		}
		want := 0
		for k := 1; k < w.centers; k++ {
			if dists[k] < dists[want] {
				want = k
			}
		}

		best := 0
		var bestDist float32
		for c := 0; c < w.centers; c++ {
			var total float32
			for _, s := range w.partial[(p*w.centers+c)*chunks:][:chunks] {
				total += s
			}
			if c == 0 || total < bestDist {
				best, bestDist = c, total
			}
		}
		if best != want {
			return fmt.Errorf("sc: point %d assigned to center %d, want %d", p, best, want)
		}
	}
	return nil
}
