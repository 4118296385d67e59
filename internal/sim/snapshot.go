package sim

import (
	"fmt"

	"pimsim/internal/snap"
)

// This file implements the kernel-layer part of checkpoint snapshots.
// Snapshots are only defined at quiescence — the calendar queue empty —
// so no pending event, ring bucket, or far-heap entry is ever
// serialized. What the kernel contributes to
// a snapshot is purely its clock and dispatch accounting; the seq
// counter restarts at zero (it only breaks ties among pending far
// events, of which a quiescent kernel has none) and base is re-anchored
// at now, which is sound because migrate() preserves global same-cycle
// FIFO regardless of the ring's origin.

// Snap codes the kernel's clock state. It fails if events are pending,
// on either side: snapshots are defined only at quiescence.
func (k *Kernel) Snap(c *snap.Coder) {
	c.Section("CLCK")
	if n := k.Pending(); n != 0 {
		c.Fail(fmt.Errorf("%w: kernel has %d pending events", snap.ErrNotQuiescent, n))
		return
	}
	c.I64(&k.now)
	c.U64(&k.Executed)
	if c.Decoding() {
		k.base = k.now
		k.seq = 0
	}
}

// Snap codes the link's occupancy horizon and traffic counters.
// nextFree is kept exactly (it may lag now at quiescence; restoring it
// preserves the next transfer's start cycle and the Busy invariant).
func (l *Link) Snap(c *snap.Coder) {
	c.Section("LINK")
	c.I64(&l.nextFree)
	c.U64(&l.BytesTransferred)
	c.U64(&l.FlitsTransferred)
	c.I64(&l.Busy)
}
