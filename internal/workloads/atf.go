package workloads

import (
	"fmt"

	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/memlayout"
	"pimsim/internal/pim"
)

// atf is Average Teenage Follower (§5.1): for every teenager vertex,
// increment the follower counter of each successor. One pass over the
// graph; the counter increments are 8-byte atomic-increment PEIs landing
// randomly across the counter array (pointer chasing over edges).
type atf struct {
	phaseCtl
	p  Params
	gm *GraphMem

	teen     memlayout.U64Array
	counters memlayout.U64Array
	teenFlag []bool
}

func newATF(p Params) *atf { return &atf{p: p} }

// isTeen deterministically marks ~28% of vertices as teenagers.
func isTeen(v int) bool { return (uint32(v)*2654435761)%7 < 2 }

func (w *atf) Streams(m *machine.Machine) []cpu.Stream {
	w.gm = buildGraph(m, graphInput(w.p))
	g := w.gm.G
	n := g.NumVertices()
	w.teen = m.Store.AllocU64Array(n)
	w.counters = m.Store.AllocU64Array(n)
	w.teenFlag = make([]bool, n)
	for v := 0; v < n; v++ {
		if isTeen(v) {
			w.teen.Set(v, 1)
			w.teenFlag[v] = true
		}
	}

	barrier := cpu.NewBarrier(w.p.Threads)
	w.initPhases(1, barrier)
	streams := make([]cpu.Stream, w.p.Threads)
	for t := 0; t < w.p.Threads; t++ {
		lo, hi := PartitionRange(n, w.p.Threads, t)
		budget := w.p.OpBudget
		d := &roundDriver{
			budget:  &budget,
			rounds:  1,
			barrier: barrier,
			items:   hi - lo,
			perItem: func(q *cpu.Queue, _, i int) {
				v := lo + i
				q.PushLoad(w.teen.Addr(v))
				if !w.teenFlag[v] {
					return
				}
				off := int64(w.gm.G.Offsets[v])
				for j, succ := range w.gm.G.Successors(v) {
					q.PushLoad(w.gm.EdgeAddr(off + int64(j)))
					q.PushPEI(pim.OpInc64, w.counters.Addr(int(succ)), 0, 0)
				}
			},
		}
		streams[t] = w.addDriver(d).stream()
	}
	return streams
}

func (w *atf) Verify(m *machine.Machine) error {
	golden := make([]uint64, w.gm.G.NumVertices())
	for v := 0; v < w.gm.G.NumVertices(); v++ {
		if !w.teenFlag[v] {
			continue
		}
		for _, succ := range w.gm.G.Successors(v) {
			golden[succ]++
		}
	}
	for v := range golden {
		if got := w.counters.Get(v); got != golden[v] {
			return fmt.Errorf("atf: counter[%d] = %d, want %d", v, got, golden[v])
		}
	}
	return nil
}
