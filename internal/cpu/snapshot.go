package cpu

import (
	"fmt"

	"pimsim/internal/snap"
)

// Snap codes the core's retirement counters and issue-stage clock
// state. At a quiescent phase boundary the core has finished its
// (round-limited) stream and drained: no in-flight ops, no stalls, no
// scheduled pump — all of which is asserted rather than serialized, on
// the snapshotted core and on the restore target alike, so a snapshot
// attempt mid-flight fails loudly. The stream is re-armed separately
// via Run.
func (c *Core) Snap(sc *snap.Coder) {
	sc.Section("CORE")
	if c.inflight != 0 || c.blocked || c.draining || c.pumpScheduled {
		sc.Fail(fmt.Errorf("%w: core %d not idle (inflight=%d blocked=%v draining=%v pump=%v)",
			snap.ErrNotQuiescent, c.ID, c.inflight, c.blocked, c.draining, c.pumpScheduled))
		return
	}
	sc.I64(&c.curCycle)
	sc.Int(&c.issuedThisCycle)
	sc.I64(&c.Retired)
	sc.I64(&c.RetiredPEIs)
	sc.I64(&c.issued)
}

// Snap codes the barrier's episode count. At a phase boundary no
// participant is parked at the barrier (every core drained past it),
// which is asserted on both sides — a waiter resumed into restored
// state would double-arrive.
func (b *Barrier) Snap(c *snap.Coder) {
	c.Section("BARR")
	if b.arrived != 0 || len(b.waiters) != 0 {
		c.Fail(fmt.Errorf("%w: barrier has %d arrivals and %d waiters", snap.ErrNotQuiescent, b.arrived, len(b.waiters)))
		return
	}
	c.I64(&b.Generations)
}
