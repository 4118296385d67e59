package cpu

import "pimsim/internal/sim"

// Barrier synchronizes the issue stages of a workload's threads: a core
// consuming an OpBarrier stalls until all N participants have arrived.
// Iterative workloads place a barrier (all ops issued) followed by a
// pfence (all PEIs complete) between supersteps.
type Barrier struct {
	n       int
	arrived int
	waiters []sim.Cont
	// Generations counts completed barrier episodes (for tests).
	Generations int64
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("cpu: barrier needs at least one participant")
	}
	return &Barrier{n: n}
}

// Arrive registers one participant; resume is invoked when all have
// arrived. The last arrival releases everyone synchronously.
func (b *Barrier) Arrive(resume sim.Cont) {
	b.arrived++
	if b.arrived < b.n {
		b.waiters = append(b.waiters, resume)
		return
	}
	// Episode complete: release all.
	waiters := b.waiters
	b.waiters = nil
	b.arrived = 0
	b.Generations++
	for _, w := range waiters {
		w.Invoke()
	}
	resume.Invoke()
}
