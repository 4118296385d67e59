package workloads

import (
	"fmt"

	"pimsim/internal/addr"
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/memlayout"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
)

// histBins is the paper's 256-bin histogram over 32-bit integers; the
// bin index is the value's top byte (shift amount 24 passed as the PEI's
// input operand).
const (
	histBins  = 256
	histShift = 24
)

// histogram is HG of §5.2: one histogram-bin-index PEI per 16-integer
// cache block replaces reading the whole block through the hierarchy;
// the returned 16 bin bytes are accumulated into thread-local counts,
// which are merged into the shared bin array at the end.
type histogram struct {
	phaseCtl
	p Params

	n        int
	dataBase uint64
	bins     memlayout.U64Array
	local    binCounts
	golden   []uint64
}

func newHistogram(p Params) *histogram { return &histogram{p: p} }

func (w *histogram) inputSize() int {
	var n int
	switch w.p.Size {
	case Small:
		n = 1_000_000
	case Medium:
		n = 10_000_000
	default:
		n = 100_000_000
	}
	n /= w.p.Scale
	if n < 1024 {
		n = 1024
	}
	return n &^ 15 // whole blocks
}

func (w *histogram) value(i int) uint32 {
	return uint32(uint64(i)*2654435761 + uint64(w.p.Seed)*977)
}

// buildData lays out the input and golden histogram; shared with RP.
func (w *histogram) buildData(m *machine.Machine) {
	w.n = w.inputSize()
	w.dataBase = m.Store.Alloc(w.n*4, addr.BlockBytes)
	w.golden = make([]uint64, histBins)
	for i := 0; i < w.n; i++ {
		v := w.value(i)
		m.Store.WriteU32(w.dataBase+uint64(i*4), v)
		w.golden[v>>histShift]++
	}
	w.bins = m.Store.AllocU64Array(histBins)
	w.local = make(binCounts, w.p.Threads)
	for t := range w.local {
		w.local[t] = make([]uint64, histBins)
	}
}

// binCounts holds per-thread bin accumulators (shared with RP). As a
// stream's Sink it adds a retired bin-index PEI's 16 bins to the row of
// the thread its tag names.
type binCounts [][]uint64

func (b binCounts) PEIDone(p *pim.PEI) {
	acc := b[p.Tag]
	for _, bin := range p.Output {
		acc[bin]++
	}
}

// histPEI emits the bin-index PEI for the 16-integer block at blockAddr,
// tagged with the thread whose accumulator its bins feed.
func histPEI(q *cpu.Queue, blockAddr uint64, tid int) {
	q.PushPEI(pim.OpHistBin, blockAddr, histShift, uint32(tid))
}

func (w *histogram) Streams(m *machine.Machine) []cpu.Stream {
	w.buildData(m)
	blocks := w.n / 16
	barrier := cpu.NewBarrier(w.p.Threads)
	w.initPhases(1, barrier)
	w.snapExtra = func(c *snap.Coder) { snapU64Grid(c, w.local) }
	streams := make([]cpu.Stream, w.p.Threads)
	for t := 0; t < w.p.Threads; t++ {
		lo, hi := PartitionRange(blocks, w.p.Threads, t)
		tid := t
		budget := w.p.OpBudget
		d := &roundDriver{
			budget:  &budget,
			rounds:  1,
			barrier: barrier,
			drain:   true,
			items:   hi - lo,
			perItem: func(q *cpu.Queue, _, i int) {
				histPEI(q, w.dataBase+uint64((lo+i)*16*4), tid)
			},
			afterRounds: func(q *cpu.Queue) {
				// Merge thread-local counts into the shared bins with
				// normal loads/stores (the merge is tiny compared to
				// the scan and needs no PEIs).
				for b := 0; b < histBins; b++ {
					q.PushLoad(w.bins.Addr(b))
					w.bins.Set(b, w.bins.Get(b)+w.local[tid][b])
					q.PushStore(w.bins.Addr(b))
				}
			},
		}
		streams[t] = w.addDriver(d).stream()
		streams[t].Sink = w.local
	}
	return streams
}

func (w *histogram) Verify(m *machine.Machine) error {
	for b := 0; b < histBins; b++ {
		if got := w.bins.Get(b); got != w.golden[b] {
			return fmt.Errorf("hg: bin[%d] = %d, want %d", b, got, w.golden[b])
		}
	}
	return nil
}
