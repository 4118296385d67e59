package workloads

import (
	"fmt"

	"pimsim/internal/cpu"
	"pimsim/internal/graph"
	"pimsim/internal/machine"
	"pimsim/internal/memlayout"
	"pimsim/internal/pim"
)

// wcc finds weakly connected components (§5.1) by label propagation on
// the symmetrized graph: every vertex pushes its label to its neighbors
// with atomic-min PEIs until labels stop changing; the component label
// converges to the smallest vertex id in the component.
type wcc struct {
	phaseCtl
	p  Params
	gm *GraphMem

	label  memlayout.U64Array
	golden []uint64
	rounds int
}

func newWCC(p Params) *wcc { return &wcc{p: p} }

// goldenWCC runs synchronous label propagation to fixpoint. A round
// lowers each vertex's label to the least label its predecessors held
// at the start of the round. Only a vertex whose label the previous
// round lowered can lower a successor: any other already pushed the
// same label a round earlier. So each round propagates from those
// vertices alone, and the labels and round count equal those of a full
// sweep (TestGoldenWCCMatchesFullSweep).
func goldenWCC(g *graph.Graph) ([]uint64, int) {
	type pushed struct {
		v     int
		label uint64
	}
	n := g.NumVertices()
	label := make([]uint64, n)
	frontier := make([]pushed, n)
	for v := range label {
		label[v] = uint64(v)
		frontier[v] = pushed{v, uint64(v)}
	}
	// changedIn[v] is the last round that lowered label[v].
	changedIn := make([]int, n)
	var changed []int
	rounds := 0
	for {
		rounds++
		changed = changed[:0]
		for _, p := range frontier {
			for _, succ := range g.Successors(p.v) {
				if p.label < label[succ] {
					label[succ] = p.label
					if changedIn[succ] != rounds {
						changedIn[succ] = rounds
						changed = append(changed, int(succ))
					}
				}
			}
		}
		if len(changed) == 0 {
			break
		}
		frontier = frontier[:0]
		for _, v := range changed {
			frontier = append(frontier, pushed{v, label[v]})
		}
	}
	return label, rounds
}

func (w *wcc) Streams(m *machine.Machine) []cpu.Stream {
	spec := graphInput(w.p)
	g := cachedGraph(spec, true)
	w.gm = LayoutGraph(m.Store, g)
	n := g.NumVertices()
	w.golden, w.rounds = goldenWCC(g)

	w.label = m.Store.AllocU64Array(n)
	for v := 0; v < n; v++ {
		w.label.Set(v, uint64(v))
	}

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
				q.PushLoad(w.label.Addr(v))
				lv := w.label.Get(v)
				off := w.gm.G.Offsets[v]
				for j, succ := range w.gm.G.Successors(v) {
					q.PushLoad(w.gm.EdgeAddr(off + int64(j)))
					q.PushPEI(pim.OpMin64, w.label.Addr(int(succ)), lv, 0)
				}
			},
		}
		streams[t] = w.addDriver(d).stream()
	}
	return streams
}

func (w *wcc) Verify(m *machine.Machine) error {
	for v := range w.golden {
		if got := w.label.Get(v); got != w.golden[v] {
			return fmt.Errorf("wcc: label[%d] = %d, want %d", v, got, w.golden[v])
		}
	}
	return nil
}
