package sim

import "testing"

// BenchmarkKernelScheduleStep measures the steady-state scheduler round
// trip: one Schedule into the near-future ring plus one dispatch. This
// is the per-event cost every timed component pays.
func BenchmarkKernelScheduleStep(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	k.Schedule(1, fn)
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(3, fn)
		k.RunN(1)
	}
}

// BenchmarkKernelScheduleStepFar stresses the overflow heap: every event
// lands beyond the ring window and migrates in.
func BenchmarkKernelScheduleStepFar(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(ringWindow+17, fn)
		k.RunN(1)
	}
}

// BenchmarkKernelSameCycle measures dispatch when each cycle holds
// several events, the shape of a pipelined machine: every event of a
// cycle schedules one successor, alternating delay 0 (appended to the
// bucket being drained) and delay 1. One op is one dispatched event. CI
// pins it at 0 allocs/op.
func BenchmarkKernelSameCycle(b *testing.B) {
	const width = 4 // concurrent chains, so each cycle holds several events
	k := NewKernel()
	chains := make([]sameCycleChain, width)
	start := func(n int) {
		for i := range chains {
			chains[i] = sameCycleChain{k: k, left: n / width}
			k.ScheduleEvent(1, &chains[i], EventArg{N: int64(i & 1)})
		}
		k.Run()
	}
	start(4 * ringWindow * width) // warm every bucket's capacity
	b.ReportAllocs()
	b.ResetTimer()
	start(b.N)
}

type sameCycleChain struct {
	k    *Kernel
	left int
}

func (c *sameCycleChain) OnEvent(arg EventArg) {
	if c.left--; c.left > 0 {
		c.k.ScheduleEvent(Cycle(arg.N), c, EventArg{N: 1 - arg.N})
	}
}
