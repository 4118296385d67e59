package pim

import (
	"testing"

	"pimsim/internal/sim"
)

func TestOperandBufferLimitsInFlight(t *testing.T) {
	k := sim.NewKernel()
	p := NewPCU(k, 2, 1, 1)
	got := 0
	for i := 0; i < 5; i++ {
		p.AcquireEvent(sim.Call(func() { got++ }))
	}
	if got != 2 {
		t.Fatalf("granted = %d, want 2 (buffer size)", got)
	}
	if p.BufferFullStalls != 3 {
		t.Fatalf("stalls = %d, want 3", p.BufferFullStalls)
	}
	p.Release()
	if got != 3 {
		t.Fatalf("granted after release = %d, want 3", got)
	}
	for p.InFlight() > 0 {
		p.Release()
	}
	if got != 5 {
		t.Fatalf("granted = %d, want all 5", got)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	k := sim.NewKernel()
	p := NewPCU(k, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Release()
}

func TestComputePipelinedAtWidthOne(t *testing.T) {
	k := sim.NewKernel()
	p := NewPCU(k, 4, 1, 1)
	var t1, t2 sim.Cycle
	// Pipelined single-issue logic: initiation interval 1, latency 10.
	p.ComputeEvent(10, sim.Call(func() { t1 = k.Now() }))
	p.ComputeEvent(10, sim.Call(func() { t2 = k.Now() }))
	k.Run()
	if t1 != 10 || t2 != 11 {
		t.Fatalf("completions %d,%d; want 10,11", t1, t2)
	}
}

func TestComputeParallelAtWidthTwo(t *testing.T) {
	k := sim.NewKernel()
	p := NewPCU(k, 4, 2, 1)
	var t1, t2, t3 sim.Cycle
	p.ComputeEvent(10, sim.Call(func() { t1 = k.Now() }))
	p.ComputeEvent(10, sim.Call(func() { t2 = k.Now() }))
	p.ComputeEvent(10, sim.Call(func() { t3 = k.Now() }))
	k.Run()
	// Two ports: the third op initiates one cycle after the first.
	if t1 != 10 || t2 != 10 || t3 != 11 {
		t.Fatalf("completions %d,%d,%d; want 10,10,11", t1, t2, t3)
	}
}

func TestClockDivisorSlowsCompute(t *testing.T) {
	k := sim.NewKernel()
	p := NewPCU(k, 4, 1, 2) // memory-side PCU at 2 GHz
	var d1, d2 sim.Cycle
	p.ComputeEvent(10, sim.Call(func() { d1 = k.Now() }))
	p.ComputeEvent(10, sim.Call(func() { d2 = k.Now() }))
	k.Run()
	if d1 != 20 {
		t.Fatalf("completion at %d, want 20 (10 cycles at half clock)", d1)
	}
	if d2 != 22 {
		t.Fatalf("second completion at %d, want 22 (one 2-cycle initiation later)", d2)
	}
}

func TestComputeCountsExecuted(t *testing.T) {
	k := sim.NewKernel()
	p := NewPCU(k, 4, 1, 1)
	for i := 0; i < 7; i++ {
		p.ComputeEvent(1, sim.Call(func() {}))
	}
	k.Run()
	if p.Executed != 7 {
		t.Fatalf("Executed = %d, want 7", p.Executed)
	}
}
