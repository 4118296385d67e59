package sim

import (
	"testing"
)

// TestKernelSteadyStateZeroAllocs pins the headline property of the
// calendar-queue scheduler: once bucket capacity is warm, a
// Schedule+RunN(1) round trip performs no heap allocations.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm up with the same access pattern the measurement uses, walking
	// every ring slot at least once so each bucket slice has capacity.
	for i := 0; i < 2*ringWindow; i++ {
		k.Schedule(3, fn)
		k.RunN(1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(3, fn)
		if k.RunN(1) != 1 {
			t.Fatal("no event dispatched")
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule+RunN(1) allocated %.1f objects/op, want 0", allocs)
	}
}

// TestKernelFIFOAcrossOverflow schedules same-cycle events through both
// paths — directly into the ring and via the far-event overflow heap
// (scheduled before the target cycle entered the ring's window) — and
// checks global FIFO order is still scheduling order.
func TestKernelFIFOAcrossOverflow(t *testing.T) {
	k := NewKernel()
	target := Cycle(ringWindow + 500) // beyond the initial window
	var got []int
	// First two land in the overflow heap.
	k.At(target, func() { got = append(got, 0) })
	k.At(target, func() { got = append(got, 1) })
	// Walk time forward so target migrates into the ring, then append
	// two more directly.
	k.At(target-1, func() {
		k.Schedule(1, func() { got = append(got, 2) })
		k.Schedule(1, func() { got = append(got, 3) })
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("events ran out of scheduling order: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("dispatched %d of 4 events", len(got))
	}
}

// TestKernelFarEventsOrdered drives events spread far beyond the ring
// window in scrambled scheduling order and checks time-ordered dispatch.
func TestKernelFarEventsOrdered(t *testing.T) {
	k := NewKernel()
	var got []Cycle
	cycles := []Cycle{5 * ringWindow, 3, 2 * ringWindow, ringWindow - 1, 7 * ringWindow, ringWindow, 1}
	for _, c := range cycles {
		c := c
		k.At(c, func() { got = append(got, c) })
	}
	k.Run()
	want := []Cycle{1, 3, ringWindow - 1, ringWindow, 2 * ringWindow, 5 * ringWindow, 7 * ringWindow}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
	if k.Now() != 7*ringWindow {
		t.Fatalf("Now() = %d", k.Now())
	}
}

// TestKernelIdleJumpThenSchedule exercises the base re-sync path: a long
// idle RunUntil leaves now far past the ring origin; subsequent
// scheduling must still dispatch correctly.
func TestKernelIdleJumpThenSchedule(t *testing.T) {
	k := NewKernel()
	k.RunUntil(100 * ringWindow)
	if k.Now() != 100*ringWindow {
		t.Fatalf("Now() = %d", k.Now())
	}
	var got []int
	k.Schedule(0, func() { got = append(got, 0) })
	k.Schedule(5, func() { got = append(got, 1) })
	k.Schedule(Cycle(2*ringWindow), func() { got = append(got, 2) })
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v", got)
		}
	}
	if len(got) != 3 || k.Now() != 102*ringWindow {
		t.Fatalf("got %v, Now() = %d", got, k.Now())
	}
}

// TestKernelRunUntilBeyondWindow checks RunUntil leaves far events
// queued and does not disturb later scheduling near the limit.
func TestKernelRunUntilBeyondWindow(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(10, func() { fired++ })
	k.At(3*ringWindow, func() { fired++ })
	k.RunUntil(2 * ringWindow)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// Scheduling at the current (jumped-to) time still works.
	k.Schedule(1, func() { fired++ })
	k.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}
