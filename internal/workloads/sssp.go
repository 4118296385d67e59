package workloads

import (
	"fmt"

	"pimsim/internal/cpu"
	"pimsim/internal/graph"
	"pimsim/internal/machine"
	"pimsim/internal/memlayout"
	"pimsim/internal/pim"
)

// sssp is parallel Bellman-Ford single-source shortest paths (§5.1):
// each round every reached vertex relaxes its outgoing edges with
// atomic-min PEIs; rounds run to the fixpoint depth computed by the
// golden implementation. Edge weights are a deterministic function of
// the edge so no extra weight array is needed. A budget-truncated run
// cannot be verified, so it keeps the round count and drops the golden
// distances.
type sssp struct {
	phaseCtl
	p  Params
	gm *GraphMem

	dist   memlayout.U64Array
	src    int
	golden []uint64
	rounds int
}

func newSSSP(p Params) *sssp { return &sssp{p: p} }

// edgeWeight gives a deterministic weight in [1,16].
func edgeWeight(v int, succ int32) uint64 {
	return uint64((uint32(v)*31+uint32(succ)*17)%16) + 1
}

// goldenSSSP runs synchronous Bellman-Ford, returning distances and the
// number of rounds to fixpoint: propagation with edgeWeight from src.
func goldenSSSP(g *graph.Graph, src int) ([]uint64, int) {
	dist := make([]uint64, g.NumVertices())
	for i := range dist {
		dist[i] = infDist
	}
	dist[src] = 0
	return dist, propagate(g, dist, []int32{int32(src)}, edgeWeights)
}

func (w *sssp) Streams(m *machine.Machine) []cpu.Stream {
	w.gm = buildGraph(m, graphInput(w.p))
	g := w.gm.G
	n := g.NumVertices()
	w.src = g.MaxDegreeVertex()
	golden, rounds := goldenSSSP(g, w.src)
	w.rounds = rounds
	if w.p.OpBudget == 0 {
		w.golden = golden
	}

	w.dist = m.Store.AllocU64Array(n)
	w.dist.Fill(infDist)
	w.dist.Set(w.src, 0)

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
			perItem: func(q *cpu.Queue, _, i int) {
				v := lo + i
				q.PushLoad(w.dist.Addr(v))
				dv := w.dist.Get(v)
				if dv == infDist {
					return
				}
				off := int64(w.gm.G.Offsets[v])
				for j, succ := range w.gm.G.Successors(v) {
					q.PushLoad(w.gm.EdgeAddr(off + int64(j)))
					q.PushPEI(pim.OpMin64, w.dist.Addr(int(succ)), dv+edgeWeight(v, succ), 0)
				}
			},
		}
		streams[t] = w.addDriver(d).stream()
	}
	return streams
}

func (w *sssp) Verify(m *machine.Machine) error {
	if w.golden == nil {
		return fmt.Errorf("sp: a budget-truncated run has no golden distances")
	}
	for v := range w.golden {
		if got := w.dist.Get(v); got != w.golden[v] {
			return fmt.Errorf("sp: dist[%d] = %d, want %d", v, got, w.golden[v])
		}
	}
	return nil
}
