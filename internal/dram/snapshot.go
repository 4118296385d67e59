package dram

import (
	"fmt"

	"pimsim/internal/snap"
)

// Snap codes per-bank row-buffer state and the controller's
// command/refresh timing horizons. The request queue must be empty and
// no pump scheduled, on both sides — queued requests or a scheduled
// pump would replay against the restored timing horizons. The
// controller's counters live in the shared stats registry and are
// snapshotted there, and the free list is pure recycling capacity with
// no timing effect, so neither appears here.
func (c *Controller) Snap(sc *snap.Coder) {
	sc.Section("DRAM")
	if len(c.queue) != 0 || c.pumpAt >= 0 {
		sc.Fail(fmt.Errorf("%w: dram controller has %d queued requests (pumpAt=%d)",
			snap.ErrNotQuiescent, len(c.queue), c.pumpAt))
		return
	}
	sc.Expect("dram: controller banks", len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		sc.Bool(&b.open)
		sc.U64(&b.openRow)
		sc.I64(&b.readyAt)
	}
	sc.I64(&c.nextIssue)
	sc.I64(&c.nextRefresh)
}
