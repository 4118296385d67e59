package workloads

import (
	"fmt"
	"math"

	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/memlayout"
	"pimsim/internal/pim"
)

// pagerank is the parallel PageRank of Figure 1: each iteration
// scatters 0.85*rank/degree to successors with double-precision
// atomic-add PEIs (phase A), then swaps rank arrays while accumulating
// the convergence delta into a shared counter with another fadd PEI
// (phase B). Phases are separated by barrier + pfence, exactly where
// Figure 1 requires the pfence.
type pagerank struct {
	phaseCtl
	p          Params
	iterations int

	gm       *GraphMem
	rank     memlayout.U64Array // float64 bits
	nextRank memlayout.U64Array
	diffAddr uint64
}

const prDamping = 0.85

func newPageRank(p Params) *pagerank {
	return &pagerank{p: p, iterations: 3}
}

// goldenPageRank runs the same fixed number of synchronous iterations.
func goldenPageRank(gm *GraphMem, iters int) ([]float64, float64) {
	g := gm.G
	n := g.NumVertices()
	base := (1 - prDamping) / float64(n)
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1.0 / float64(n)
		next[v] = base
	}
	var diff float64
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			deg := g.OutDegree(v)
			if deg == 0 {
				continue
			}
			delta := prDamping * rank[v] / float64(deg)
			for _, succ := range g.Successors(v) {
				next[succ] += delta
			}
		}
		diff = 0
		for v := 0; v < n; v++ {
			d := next[v] - rank[v]
			if d < 0 {
				d = -d
			}
			diff += d
			rank[v] = next[v]
			next[v] = base
		}
	}
	return rank, diff
}

func (w *pagerank) Streams(m *machine.Machine) []cpu.Stream {
	w.gm = buildGraph(m, graphInput(w.p))
	g := w.gm.G
	n := g.NumVertices()
	base := (1 - prDamping) / float64(n)

	w.rank = m.Store.AllocU64Array(n)
	w.nextRank = m.Store.AllocU64Array(n)
	w.diffAddr = m.Store.Alloc(8, 64)
	for v := 0; v < n; v++ {
		w.rank.SetF(v, 1.0/float64(n))
		w.nextRank.SetF(v, base)
	}

	barrier := cpu.NewBarrier(w.p.Threads)
	w.initPhases(2*w.iterations, barrier)
	streams := make([]cpu.Stream, w.p.Threads)
	for t := 0; t < w.p.Threads; t++ {
		lo, hi := PartitionRange(n, w.p.Threads, t)
		isFirst := t == 0
		budget := w.p.OpBudget
		d := &roundDriver{
			budget: &budget,
			// Two supersteps per iteration: scatter, then swap+diff.
			rounds:  2 * w.iterations,
			barrier: barrier,
			items:   hi - lo,
			beforeRound: func(round int) {
				// The diff accumulator is reset at the start of each
				// iteration's scatter phase by thread 0.
				if isFirst && round%2 == 0 {
					m.Store.WriteF64(w.diffAddr, 0)
				}
			},
			perItem: func(q *cpu.Queue, round, i int) {
				v := lo + i
				if round%2 == 0 {
					// Phase A: scatter deltas to successors.
					q.PushLoad(w.rank.Addr(v))
					deg := w.gm.G.OutDegree(v)
					if deg == 0 {
						return
					}
					delta := prDamping * w.rank.GetF(v) / float64(deg)
					off := int64(w.gm.G.Offsets[v])
					for j, succ := range w.gm.G.Successors(v) {
						q.PushLoad(w.gm.EdgeAddr(off + int64(j)))
						q.PushPEI(pim.OpFloatAdd, w.nextRank.Addr(int(succ)), math.Float64bits(delta), 0)
					}
					return
				}
				// Phase B: diff += |next-rank|; rank = next; next = base.
				q.PushLoad(w.nextRank.Addr(v))
				nv, rv := w.nextRank.GetF(v), w.rank.GetF(v)
				d := nv - rv
				if d < 0 {
					d = -d
				}
				q.PushPEI(pim.OpFloatAdd, w.diffAddr, math.Float64bits(d), 0)
				w.rank.SetF(v, nv)
				q.PushStore(w.rank.Addr(v))
				w.nextRank.SetF(v, base)
				q.PushStore(w.nextRank.Addr(v))
			},
		}
		streams[t] = w.addDriver(d).stream()
	}
	return streams
}

// Verify runs the golden iterations here rather than at build, so
// budget-limited runs, which never verify, do not pay for them.
func (w *pagerank) Verify(m *machine.Machine) error {
	goldenRank, goldenDiff := goldenPageRank(w.gm, w.iterations)
	for v := range goldenRank {
		if got := w.rank.GetF(v); !approxEqual(got, goldenRank[v], 1e-9) {
			return fmt.Errorf("pr: rank[%d] = %g, want %g", v, got, goldenRank[v])
		}
	}
	if got := m.Store.ReadF64(w.diffAddr); !approxEqual(got, goldenDiff, 1e-6) {
		return fmt.Errorf("pr: diff = %g, want %g", got, goldenDiff)
	}
	return nil
}
