package workloads

import (
	"fmt"

	"pimsim/internal/addr"
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/snap"
)

// radix is RP of §5.2: radix partitioning of an in-memory relation.
// Each query first builds a histogram of the data (reusing the
// histogram-bin-index PEI), then re-reads the data and scatters rows to
// their partitions. The paper applies the algorithm repeatedly to the
// same relation (database servers answering a query stream); Passes
// controls the repeat count.
type radix struct {
	phaseCtl
	p      Params
	Passes int

	n        int
	dataBase uint64
	dstBase  uint64

	// offsets[t][b] is where thread t writes its next element of bin b
	// (global prefix sums plus per-thread skew), recomputed per pass.
	offsets   [][]int
	local     binCounts
	goldenDst []uint32
	value     func(i int) uint32
}

func newRadixPartition(p Params) *radix { return &radix{p: p, Passes: 2} }

func (w *radix) inputSize() int {
	var n int
	switch w.p.Size {
	case Small:
		n = 128 << 10
	case Medium:
		n = 1 << 20
	default:
		n = 128 << 20
	}
	n /= w.p.Scale
	if n < 1024 {
		n = 1024
	}
	return n &^ 15
}

func (w *radix) Streams(m *machine.Machine) []cpu.Stream {
	w.n = w.inputSize()
	w.value = func(i int) uint32 { return uint32(uint64(i)*2654435761 + uint64(w.p.Seed)*977) }
	w.dataBase = m.Store.Alloc(w.n*4, addr.BlockBytes)
	w.dstBase = m.Store.Alloc(w.n*4, addr.BlockBytes)
	hist := make([]uint64, histBins)
	for i := 0; i < w.n; i++ {
		v := w.value(i)
		m.Store.WriteU32(w.dataBase+uint64(i*4), v)
		hist[v>>histShift]++
	}

	// Golden: stable partition with threads writing their contiguous
	// input slices into per-bin regions, thread-major within each bin.
	w.offsets = make([][]int, w.p.Threads)
	w.local = make(binCounts, w.p.Threads)
	perThreadBin := make([][]uint64, w.p.Threads)
	totalBlocks := w.n / 16
	for t := 0; t < w.p.Threads; t++ {
		counts := make([]uint64, histBins)
		blo, bhi := PartitionRange(totalBlocks, w.p.Threads, t)
		lo, hi := blo*16, bhi*16
		for i := lo; i < hi; i++ {
			counts[w.value(i)>>histShift]++
		}
		perThreadBin[t] = counts
		w.local[t] = make([]uint64, histBins)
	}
	binStart := make([]int, histBins)
	acc := 0
	for b := 0; b < histBins; b++ {
		binStart[b] = acc
		acc += int(hist[b])
	}
	for t := 0; t < w.p.Threads; t++ {
		w.offsets[t] = make([]int, histBins)
		for b := 0; b < histBins; b++ {
			w.offsets[t][b] = binStart[b]
			for u := 0; u < t; u++ {
				w.offsets[t][b] += int(perThreadBin[u][b])
			}
		}
	}
	w.goldenDst = make([]uint32, w.n)
	cursor := make([][]int, w.p.Threads)
	for t := range cursor {
		cursor[t] = append([]int(nil), w.offsets[t]...)
	}
	for t := 0; t < w.p.Threads; t++ {
		blo, bhi := PartitionRange(totalBlocks, w.p.Threads, t)
		for i := blo * 16; i < bhi*16; i++ {
			v := w.value(i)
			b := v >> histShift
			w.goldenDst[cursor[t][b]] = v
			cursor[t][b]++
		}
	}

	barrier := cpu.NewBarrier(w.p.Threads)
	w.initPhases(2*w.Passes, barrier)
	// scatterCursor needs no snapshot: beforeRound recomputes it from
	// offsets at the start of every scatter round, and phase boundaries
	// only fall between rounds.
	w.snapExtra = func(c *snap.Coder) { snapU64Grid(c, w.local) }
	streams := make([]cpu.Stream, w.p.Threads)
	for t := 0; t < w.p.Threads; t++ {
		blo, bhi := PartitionRange(totalBlocks, w.p.Threads, t)
		lo := blo * 16
		blocks := bhi - blo
		tid := t
		var scatterCursor []int
		budget := w.p.OpBudget
		d := &roundDriver{
			budget: &budget,
			// Per pass: one histogram superstep + one scatter superstep.
			rounds:  2 * w.Passes,
			barrier: barrier,
			drain:   true,
			items:   blocks,
			beforeRound: func(round int) {
				if round%2 == 1 {
					scatterCursor = append([]int(nil), w.offsets[tid]...)
				}
			},
			perItem: func(q *cpu.Queue, round, i int) {
				blockBase := w.dataBase + uint64(lo+i*16)*4
				if round%2 == 0 {
					histPEI(q, blockBase, tid)
					return
				}
				// Scatter: re-read the block, then store each element to
				// its partition.
				q.PushLoad(blockBase)
				for e := 0; e < 16; e++ {
					idx := lo + i*16 + e
					v := w.value(idx)
					b := v >> histShift
					dst := w.dstBase + uint64(scatterCursor[b])*4
					m.Store.WriteU32(dst, v)
					scatterCursor[b]++
					q.PushStore(dst)
				}
			},
		}
		streams[t] = w.addDriver(d).stream()
		streams[t].Sink = w.local
	}
	return streams
}

func (w *radix) Verify(m *machine.Machine) error {
	for i := 0; i < w.n; i++ {
		if got := m.Store.ReadU32(w.dstBase + uint64(i*4)); got != w.goldenDst[i] {
			return fmt.Errorf("rp: dst[%d] = %d, want %d", i, got, w.goldenDst[i])
		}
	}
	// The output must be partitioned: bin indexes nondecreasing.
	last := uint32(0)
	for i := 0; i < w.n; i++ {
		b := m.Store.ReadU32(w.dstBase+uint64(i*4)) >> histShift
		if b < last {
			return fmt.Errorf("rp: output not partitioned at %d (bin %d after %d)", i, b, last)
		}
		last = b
	}
	return nil
}
