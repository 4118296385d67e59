package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(5, func() { got = append(got, 5) })
	k.Schedule(1, func() { got = append(got, 1) })
	k.Schedule(3, func() { got = append(got, 3) })
	k.Run()
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", k.Now())
	}
}

func TestKernelFIFOSameCycle(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(7, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-cycle events ran out of order: %v", got)
		}
	}
}

func TestKernelZeroDelayRunsThisCycle(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(2, func() {
		k.Schedule(0, func() {
			if k.Now() != 2 {
				t.Errorf("zero-delay event ran at %d, want 2", k.Now())
			}
			fired = true
		})
	})
	k.Run()
	if !fired {
		t.Fatal("zero-delay event never fired")
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.Schedule(1, rec)
		}
	}
	k.Schedule(0, rec)
	k.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Now() != 99 {
		t.Fatalf("Now() = %d, want 99", k.Now())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Cycle
	for _, c := range []Cycle{10, 20, 30} {
		c := c
		k.At(c, func() { fired = append(fired, c) })
	}
	k.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v after Run, want three", fired)
	}
}

func TestKernelRunUntilAdvancesIdleTime(t *testing.T) {
	k := NewKernel()
	k.RunUntil(1000)
	if k.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", k.Now())
	}
}

func TestKernelPastSchedulePanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scheduling in the past")
		}
	}()
	k.At(5, func() {})
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	k.Schedule(-1, func() {})
}

// Property: however delays are chosen, events fire in nondecreasing time
// order and the kernel dispatches exactly as many events as scheduled.
func TestKernelMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var last Cycle = -1
		ok := true
		for _, d := range delays {
			k.Schedule(Cycle(d), func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok && k.Executed == uint64(len(delays))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// recorder appends each dispatched event's N to out.
type recorder struct{ out *[]int64 }

func (r *recorder) OnEvent(arg EventArg) { *r.out = append(*r.out, arg.N) }

// TestKernelEarlyLane pins the arrivals-before-locals rule: an event
// posted through AtEventEarly dispatches before every normal-lane event
// of the same cycle, regardless of insertion order — the rule that fixes
// same-cycle ties between link arrivals and local events.
func TestKernelEarlyLane(t *testing.T) {
	k := NewKernel()
	var got []int64
	r := &recorder{out: &got}
	// Normal-lane events inserted first; early-lane events inserted
	// last must still run first, FIFO within each lane.
	k.AtEvent(5, r, EventArg{N: 10})
	k.AtEvent(5, r, EventArg{N: 11})
	k.AtEventEarly(5, r, EventArg{N: 1})
	k.AtEventEarly(5, r, EventArg{N: 2})
	k.AtEvent(5, r, EventArg{N: 12})
	k.Run()
	want := []int64{1, 2, 10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", k.Pending())
	}
}

// TestKernelEarlyLaneFarHeap pins lane routing through the far heap:
// events beyond the calendar ring's window keep their lane when they
// migrate into a bucket.
func TestKernelEarlyLaneFarHeap(t *testing.T) {
	k := NewKernel()
	var got []int64
	r := &recorder{out: &got}
	far := Cycle(ringWindow + 100)
	k.AtEvent(far, r, EventArg{N: 10})
	k.AtEventEarly(far, r, EventArg{N: 1})
	k.AtEvent(far, r, EventArg{N: 11})
	k.AtEventEarly(far, r, EventArg{N: 2})
	k.Run()
	want := []int64{1, 2, 10, 11}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != far {
		t.Fatalf("Now() = %d, want %d", k.Now(), far)
	}
}

// TestKernelEarlyPastPanics pins that the early lane rejects
// non-future posts — link deliveries are always at least one cycle
// out, so a same-cycle early insert is a wiring bug.
func TestKernelEarlyPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(3, func() {
		defer func() {
			if recover() == nil {
				t.Error("AtEventEarly at now did not panic")
			}
		}()
		k.AtEventEarly(3, funcEvent(func() {}), EventArg{})
	})
	k.Run()
}
