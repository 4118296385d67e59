package sim

import "testing"

// BenchmarkKernelScheduleStep measures the steady-state scheduler round
// trip: one Schedule into the near-future ring plus one Step dispatch.
// This is the per-event cost every timed component pays.
func BenchmarkKernelScheduleStep(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	k.Schedule(1, fn)
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(3, fn)
		k.Step()
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
		k.Step()
	}
}
