package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The dispatch-order property: however the kernel is driven — Run to
// empty, RunN with budgets that stop partway through a cycle's bucket,
// or RunUntil limits — events dispatch in the order of a sorted
// reference model: cycle, then early lane before normal lane, then
// scheduling order. Random programs mix near events, far events (beyond
// the ring window, through the overflow heap), early-lane events and
// delay-0 events scheduled from inside dispatch.

// orderNode is one event of a program: when its parent dispatches, it is
// scheduled delay cycles later, in the early lane if early is set.
// Roots are scheduled before the run, at cycle delay.
type orderNode struct {
	delay    Cycle
	early    bool
	children []int
}

// orderProgram builds a random forest of n events: a few roots at small
// cycles, every other event the child of an earlier one.
func orderProgram(rng *rand.Rand, n int) (nodes []orderNode, roots []int) {
	nodes = make([]orderNode, n)
	for i := range nodes {
		nd := &nodes[i]
		switch r := rng.Intn(20); {
		case r < 6:
			nd.delay = 0
		case r < 13:
			nd.delay = Cycle(1 + rng.Intn(3))
		case r < 16:
			nd.delay = Cycle(1 + rng.Intn(ringWindow-1))
		default:
			nd.delay = Cycle(ringWindow + rng.Intn(3*ringWindow))
		}
		if rng.Intn(4) == 0 {
			nd.early = true
			if nd.delay == 0 {
				nd.delay = 1 // an early event lands strictly in the future
			}
		}
		if i < 1+n/16 {
			roots = append(roots, i)
			continue
		}
		p := rng.Intn(i)
		nodes[p].children = append(nodes[p].children, i)
	}
	return nodes, roots
}

// orderRef runs a program through the reference model: a pending list
// kept sorted by (cycle, lane, scheduling sequence).
func orderRef(nodes []orderNode, roots []int) (ids []int, at []Cycle) {
	type pend struct {
		when Cycle
		lane int // 0 early, 1 normal
		seq  int
		node int
	}
	var q []pend
	seq := 0
	push := func(now Cycle, i int) {
		lane := 1
		if nodes[i].early {
			lane = 0
		}
		q = append(q, pend{when: now + nodes[i].delay, lane: lane, seq: seq, node: i})
		seq++
	}
	for _, r := range roots {
		push(0, r)
	}
	for len(q) > 0 {
		sort.Slice(q, func(a, b int) bool {
			x, y := q[a], q[b]
			if x.when != y.when {
				return x.when < y.when
			}
			if x.lane != y.lane {
				return x.lane < y.lane
			}
			return x.seq < y.seq
		})
		e := q[0]
		q = q[1:]
		ids = append(ids, e.node)
		at = append(at, e.when)
		for _, c := range nodes[e.node].children {
			push(e.when, c)
		}
	}
	return ids, at
}

// orderRun is the kernel side: one handler for every event, the node
// index riding in EventArg.N.
type orderRun struct {
	k     *Kernel
	nodes []orderNode
	ids   []int
	at    []Cycle
}

func (r *orderRun) schedule(i int) {
	nd := r.nodes[i]
	if nd.early {
		r.k.AtEventEarly(r.k.Now()+nd.delay, r, EventArg{N: int64(i)})
	} else {
		r.k.ScheduleEvent(nd.delay, r, EventArg{N: int64(i)})
	}
}

func (r *orderRun) OnEvent(arg EventArg) {
	i := int(arg.N)
	r.ids = append(r.ids, i)
	r.at = append(r.at, r.k.Now())
	for _, c := range r.nodes[i].children {
		r.schedule(c)
	}
}

func newOrderRun(nodes []orderNode, roots []int) *orderRun {
	r := &orderRun{k: NewKernel(), nodes: nodes}
	for _, i := range roots {
		r.schedule(i)
	}
	return r
}

func TestKernelDispatchOrderProperty(t *testing.T) {
	midBucket := 0 // RunN calls whose budget ended inside a cycle's bucket
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes, roots := orderProgram(rng, 50+rng.Intn(400))
		wantIDs, wantAt := orderRef(nodes, roots)

		drivers := []struct {
			name  string
			drive func(r *orderRun) error
		}{
			{"Run", func(r *orderRun) error {
				r.k.Run()
				return nil
			}},
			{"RunN", func(r *orderRun) error {
				for {
					n := 1 + rng.Intn(6)
					if rng.Intn(8) == 0 {
						n = 1 + rng.Intn(64)
					}
					before := len(r.ids)
					got := r.k.RunN(n)
					if got != len(r.ids)-before {
						return fmt.Errorf("RunN(%d) reported %d events, dispatched %d", n, got, len(r.ids)-before)
					}
					if j := len(r.ids); got == n && j < len(wantAt) && wantAt[j] == r.at[j-1] {
						midBucket++
					}
					if got < n {
						if p := r.k.Pending(); p != 0 {
							return fmt.Errorf("RunN(%d) stopped after %d with %d pending", n, got, p)
						}
						return nil
					}
				}
			}},
			{"RunUntil", func(r *orderRun) error {
				var limit Cycle
				for r.k.Pending() > 0 {
					limit += Cycle(rng.Intn(3 * ringWindow))
					before := len(r.ids)
					r.k.RunUntil(limit)
					for j := before; j < len(r.at); j++ {
						if r.at[j] > limit {
							return fmt.Errorf("RunUntil(%d) dispatched an event of cycle %d", limit, r.at[j])
						}
					}
					// Everything the reference runs by limit has run.
					if len(r.ids) < len(wantAt) && wantAt[len(r.ids)] <= limit {
						return fmt.Errorf("RunUntil(%d) left the event of cycle %d", limit, wantAt[len(r.ids)])
					}
					if r.k.Now() != limit {
						return fmt.Errorf("RunUntil(%d) left Now() at %d", limit, r.k.Now())
					}
				}
				return nil
			}},
		}
		for _, d := range drivers {
			r := newOrderRun(nodes, roots)
			if err := d.drive(r); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, d.name, err)
			}
			if len(r.ids) != len(wantIDs) {
				t.Fatalf("seed %d, %s: dispatched %d of %d events", seed, d.name, len(r.ids), len(wantIDs))
			}
			for j := range wantIDs {
				if r.ids[j] != wantIDs[j] || r.at[j] != wantAt[j] {
					t.Fatalf("seed %d, %s: event %d is node %d at cycle %d, want node %d at cycle %d",
						seed, d.name, j, r.ids[j], r.at[j], wantIDs[j], wantAt[j])
				}
			}
			if r.k.Executed != uint64(len(wantIDs)) || r.k.Pending() != 0 {
				t.Fatalf("seed %d, %s: Executed %d, Pending %d; want %d, 0", seed, d.name, r.k.Executed, r.k.Pending(), len(wantIDs))
			}
		}
	}
	if midBucket == 0 {
		t.Fatal("no RunN budget stopped partway through a bucket")
	}
}
