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

// goldenWCC runs synchronous label propagation to fixpoint: every
// vertex starts labelled with its own id and propagates it unchanged,
// so a component converges to its least id.
func goldenWCC(g *graph.Graph) ([]uint64, int) {
	n := g.NumVertices()
	label := make([]uint64, n)
	front := make([]int32, n)
	for v := range label {
		label[v] = uint64(v)
		front[v] = int32(v)
	}
	return label, propagate(g, label, front, zeroWeights)
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
				off := int64(w.gm.G.Offsets[v])
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
