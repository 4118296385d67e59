package workloads

import (
	"fmt"

	"pimsim/internal/cpu"
	"pimsim/internal/graph"
	"pimsim/internal/machine"
	"pimsim/internal/memlayout"
	"pimsim/internal/pim"
)

// infDist marks unreached vertices in BFS/SSSP (large but addable
// without overflow).
const infDist = uint64(1) << 60

// bfs is level-synchronous parallel breadth-first search (§5.1): each
// round, vertices at the frontier level update their neighbors' level
// fields with 8-byte atomic-min PEIs; rounds are separated by a barrier
// plus pfence. The number of rounds is the BFS depth of the graph,
// computed by the golden implementation up front (see DESIGN.md on
// fixed-round supersteps). A budget-truncated run cannot be verified,
// so it keeps the round count and drops the golden levels.
type bfs struct {
	phaseCtl
	p  Params
	gm *GraphMem

	level  memlayout.U64Array
	src    int
	golden []uint64
	rounds int
}

func newBFS(p Params) *bfs { return &bfs{p: p} }

// goldenBFS runs synchronous BFS, returning final levels and the round
// count to fixpoint: propagation with unit weights from src.
func goldenBFS(g *graph.Graph, src int) ([]uint64, int) {
	levels := make([]uint64, g.NumVertices())
	for i := range levels {
		levels[i] = infDist
	}
	levels[src] = 0
	return levels, propagate(g, levels, []int32{int32(src)}, unitWeights)
}

func (w *bfs) Streams(m *machine.Machine) []cpu.Stream {
	w.gm = buildGraph(m, graphInput(w.p))
	g := w.gm.G
	n := g.NumVertices()
	w.src = g.MaxDegreeVertex()
	golden, rounds := goldenBFS(g, w.src)
	w.rounds = rounds
	if w.p.OpBudget == 0 {
		w.golden = golden
	}

	w.level = m.Store.AllocU64Array(n)
	w.level.Fill(infDist)
	w.level.Set(w.src, 0)

	barrier := cpu.NewBarrier(w.p.Threads)
	w.initPhases(w.rounds, barrier)
	streams := make([]cpu.Stream, w.p.Threads)
	for t := 0; t < w.p.Threads; t++ {
		lo, hi := PartitionRange(n, w.p.Threads, t)
		budget := w.p.OpBudget
		d := &roundDriver{
			budget:  &budget,
			rounds:  w.rounds,
			barrier: barrier,
			items:   hi - lo,
			perItem: func(q *cpu.Queue, round, i int) {
				v := lo + i
				q.PushLoad(w.level.Addr(v))
				if w.level.Get(v) != uint64(round) {
					return
				}
				off := int64(w.gm.G.Offsets[v])
				for j, succ := range w.gm.G.Successors(v) {
					q.PushLoad(w.gm.EdgeAddr(off + int64(j)))
					q.PushPEI(pim.OpMin64, w.level.Addr(int(succ)), uint64(round)+1, 0)
				}
			},
		}
		streams[t] = w.addDriver(d).stream()
	}
	return streams
}

func (w *bfs) Verify(m *machine.Machine) error {
	if w.golden == nil {
		return fmt.Errorf("bfs: a budget-truncated run has no golden levels")
	}
	for v := range w.golden {
		if got := w.level.Get(v); got != w.golden[v] {
			return fmt.Errorf("bfs: level[%d] = %d, want %d", v, got, w.golden[v])
		}
	}
	return nil
}
