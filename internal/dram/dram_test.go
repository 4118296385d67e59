package dram

import (
	"testing"
	"testing/quick"

	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

func testTiming() Timing {
	return Timing{TCL: 55, TRCD: 55, TRP: 55, IssueGap: 2}
}

func testRegistry() *stats.Registry { return stats.NewRegistry() }

func newTestController(banks int) (*sim.Kernel, *Controller, *stats.Registry) {
	k := sim.NewKernel()
	reg := stats.NewRegistry()
	c := NewController(k, banks, testTiming(), reg, "dram.")
	return k, c, reg
}

func TestFirstAccessIsRowMiss(t *testing.T) {
	k, c, reg := newTestController(4)
	var done sim.Cycle = -1
	c.EnqueueEvent(0, 3, false, sim.Call(func() { done = k.Now() }))
	k.Run()
	if done != 110 { // tRCD + tCL
		t.Fatalf("completion at %d, want 110", done)
	}
	if reg.Get("dram.row_miss") != 1 {
		t.Fatal("expected one row miss")
	}
}

func TestRowHitIsFaster(t *testing.T) {
	k, c, reg := newTestController(4)
	var second sim.Cycle
	c.EnqueueEvent(0, 3, false, sim.Cont{})
	c.EnqueueEvent(0, 3, false, sim.Call(func() { second = k.Now() }))
	k.Run()
	// First: issues at 0, bank ready at 110. Second: row hit issues at
	// 110, completes at 165.
	if second != 165 {
		t.Fatalf("second completion at %d, want 165", second)
	}
	if reg.Get("dram.row_hit") != 1 {
		t.Fatal("expected one row hit")
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	k, c, reg := newTestController(4)
	var second sim.Cycle
	c.EnqueueEvent(0, 1, false, sim.Cont{})
	c.EnqueueEvent(0, 2, false, sim.Call(func() { second = k.Now() }))
	k.Run()
	// Second issues at 110, takes tRP+tRCD+tCL = 165, completes at 275.
	if second != 275 {
		t.Fatalf("conflict completion at %d, want 275", second)
	}
	if reg.Get("dram.row_conflict") != 1 {
		t.Fatal("expected one row conflict")
	}
}

func TestBankParallelism(t *testing.T) {
	k, c, _ := newTestController(4)
	var a, b sim.Cycle
	c.EnqueueEvent(0, 1, false, sim.Call(func() { a = k.Now() }))
	c.EnqueueEvent(1, 1, false, sim.Call(func() { b = k.Now() }))
	k.Run()
	// Bank 1's command issues one IssueGap later but overlaps bank 0.
	if a != 110 || b != 112 {
		t.Fatalf("completions %d,%d; want 110,112", a, b)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	k, c, _ := newTestController(1)
	var order []int
	c.EnqueueEvent(0, 1, false, sim.Call(func() { order = append(order, 1) }))
	// While row 1 is open: a conflicting request arrives first, then a
	// row hit. FR-FCFS should reorder the hit ahead of the conflict.
	c.EnqueueEvent(0, 9, false, sim.Call(func() { order = append(order, 9) }))
	c.EnqueueEvent(0, 1, false, sim.Call(func() { order = append(order, 11) }))
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 11 || order[2] != 9 {
		t.Fatalf("completion order %v, want [1 11 9]", order)
	}
}

func TestWriteCounted(t *testing.T) {
	k, c, reg := newTestController(2)
	c.EnqueueEvent(0, 0, true, sim.Cont{})
	k.Run()
	if reg.Get("dram.writes") != 1 || reg.Get("dram.reads") != 0 {
		t.Fatal("write accounting wrong")
	}
}

func TestBankOutOfRangePanics(t *testing.T) {
	_, c, _ := newTestController(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.EnqueueEvent(5, 0, false, sim.Cont{})
}

// Property: every enqueued request eventually completes exactly once, in
// any arrival pattern of banks and rows.
func TestAllRequestsComplete(t *testing.T) {
	f := func(pattern []uint8) bool {
		k, c, _ := newTestController(8)
		completed := 0
		for _, p := range pattern {
			c.EnqueueEvent(int(p%8), uint64(p/8%4), p%3 == 0, sim.Call(func() { completed++ }))
		}
		k.Run()
		return completed == len(pattern)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a single bank, completions are serialized at least
// IssueGap apart and never regress in time.
func TestSingleBankSerialization(t *testing.T) {
	k, c, _ := newTestController(1)
	var times []sim.Cycle
	for i := 0; i < 20; i++ {
		c.EnqueueEvent(0, uint64(i%2), false, sim.Call(func() { times = append(times, k.Now()) }))
	}
	k.Run()
	if len(times) != 20 {
		t.Fatalf("completed %d, want 20", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("completions not strictly ordered: %v", times)
		}
	}
}

// Staggered arrivals exercise the pump re-scheduling path.
func TestStaggeredArrivals(t *testing.T) {
	k, c, _ := newTestController(2)
	completed := 0
	for i := 0; i < 10; i++ {
		i := i
		k.At(sim.Cycle(i*30), func() {
			c.EnqueueEvent(i%2, uint64(i), false, sim.Call(func() { completed++ }))
		})
	}
	k.Run()
	if completed != 10 {
		t.Fatalf("completed %d, want 10", completed)
	}
}

func TestRefreshStallsBanks(t *testing.T) {
	k := sim.NewKernel()
	reg := stats.NewRegistry()
	tm := testTiming()
	tm.TREFI = 1000
	tm.TRFC = 200
	c := NewController(k, 2, tm, reg, "dram.")
	// Arrive just after the first refresh window opens: the access must
	// wait out tRFC and then pay a full row activation (rows closed).
	var done sim.Cycle
	k.At(1000, func() {
		c.EnqueueEvent(0, 1, false, sim.Call(func() { done = k.Now() }))
	})
	k.Run()
	if done != 1000+200+110 {
		t.Fatalf("completion at %d, want 1310 (tRFC + row activation)", done)
	}
	if reg.Get("dram.refreshes") == 0 {
		t.Fatal("no refresh counted")
	}
}

func TestRefreshClosesOpenRow(t *testing.T) {
	k := sim.NewKernel()
	tm := testTiming()
	tm.TREFI = 1000
	tm.TRFC = 200
	c := NewController(k, 1, tm, testRegistry(), "dram.")
	c.EnqueueEvent(0, 5, false, sim.Cont{}) // opens row 5, completes at 110
	var done sim.Cycle
	k.At(1500, func() { // after one refresh epoch
		c.EnqueueEvent(0, 5, false, sim.Call(func() { done = k.Now() }))
	})
	k.Run()
	// Row was closed by refresh: row miss (tRCD+tCL), not a hit.
	if done != 1500+110 {
		t.Fatalf("completion at %d, want 1610 (row re-activation after refresh)", done)
	}
}

func TestRefreshDisabledByDefaultTiming(t *testing.T) {
	k, c, reg := newTestController(1)
	c.EnqueueEvent(0, 0, false, sim.Cont{})
	k.Run()
	if reg.Get("dram.refreshes") != 0 {
		t.Fatal("refresh fired with TREFI=0")
	}
}

func TestLongIdleGapFastForwardsRefresh(t *testing.T) {
	k := sim.NewKernel()
	tm := testTiming()
	tm.TREFI = 100
	tm.TRFC = 10
	c := NewController(k, 1, tm, testRegistry(), "dram.")
	done := false
	k.At(1_000_000, func() {
		c.EnqueueEvent(0, 0, false, sim.Call(func() { done = true }))
	})
	k.Run()
	if !done {
		t.Fatal("request lost across idle refresh epochs")
	}
}
