package sim

import (
	"fmt"

	"pimsim/internal/snap"
)

// This file implements the kernel-layer half of checkpoint snapshots.
// Snapshots are only defined at quiescence — the calendar queue empty —
// so no pending event, ring bucket, or far-heap entry is ever
// serialized. What the kernel contributes to
// a snapshot is purely its clock and dispatch accounting; the seq
// counter restarts at zero (it only breaks ties among pending far
// events, of which a quiescent kernel has none) and base is re-anchored
// at now, which is sound because migrate() preserves global same-cycle
// FIFO regardless of the ring's origin.

// SnapshotTo serializes the kernel's clock state. It fails if events
// are pending: snapshots are defined only at quiescence.
func (k *Kernel) SnapshotTo(w *snap.Writer) {
	w.Section("CLCK")
	if n := k.Pending(); n != 0 {
		w.Fail(fmt.Errorf("%w: kernel has %d pending events", snap.ErrNotQuiescent, n))
		return
	}
	w.I64(k.now)
	w.U64(k.Executed)
}

// RestoreFrom loads clock state into an empty kernel.
func (k *Kernel) RestoreFrom(r *snap.Reader) {
	r.Section("CLCK")
	if n := k.Pending(); n != 0 {
		r.Fail(fmt.Errorf("%w: restore target kernel has %d pending events", snap.ErrNotQuiescent, n))
		return
	}
	k.now = r.I64()
	k.base = k.now
	k.Executed = r.U64()
	k.seq = 0
}

// SnapshotTo serializes the link's occupancy horizon and traffic
// counters. nextFree is kept exactly (it may lag now at quiescence;
// restoring it preserves QueueDelay arithmetic and the Busy invariant).
func (l *Link) SnapshotTo(w *snap.Writer) {
	w.Section("LINK")
	w.I64(l.nextFree)
	w.U64(l.BytesTransferred)
	w.U64(l.FlitsTransferred)
	w.I64(l.Busy)
}

// RestoreFrom loads link state.
func (l *Link) RestoreFrom(r *snap.Reader) {
	r.Section("LINK")
	l.nextFree = r.I64()
	l.BytesTransferred = r.U64()
	l.FlitsTransferred = r.U64()
	l.Busy = r.I64()
}
