package cache

import (
	"fmt"

	"pimsim/internal/snap"
)

// SnapshotTo serializes the tag array: geometry (verified on restore),
// the LRU clock, hit/miss counters, and every line including its
// unexported LRU stamp — replacement decisions after a resume must
// match the cold run's exactly.
func (c *Cache) SnapshotTo(w *snap.Writer) {
	w.Section("CACH")
	w.Int(c.sets)
	w.Int(c.ways)
	w.U64(c.clock)
	w.I64(c.Hits)
	w.I64(c.Misses)
	for i := range c.lines {
		l := &c.lines[i]
		w.U64(l.Key)
		w.U8(uint8(l.State))
		w.Bool(l.Dirty)
		w.U64(l.Sharers)
		w.U64(l.lru)
	}
}

// RestoreFrom loads tag-array state into a cache of identical geometry.
func (c *Cache) RestoreFrom(r *snap.Reader) {
	r.Section("CACH")
	sets, ways := r.Int(), r.Int()
	if r.Err() != nil {
		return
	}
	if sets != c.sets || ways != c.ways {
		r.Fail(fmt.Errorf("cache: geometry %dx%d, snapshot has %dx%d", c.sets, c.ways, sets, ways))
		return
	}
	c.clock = r.U64()
	c.Hits = r.I64()
	c.Misses = r.I64()
	for i := range c.lines {
		l := &c.lines[i]
		l.Key = r.U64()
		l.State = State(r.U8())
		l.Dirty = r.Bool()
		l.Sharers = r.U64()
		l.lru = r.U64()
	}
}

// SnapshotTo serializes the whole hierarchy: every cache level, the
// crossbar and bank-service links, and the access-latency histogram.
// MSHR files, pend queues, and transaction pools must be empty — an
// in-flight miss at a "quiescent" boundary is a quiescence-protocol bug
// and fails the snapshot.
func (h *Hierarchy) SnapshotTo(w *snap.Writer) {
	w.Section("HIER")
	for core := range h.l1 {
		if n := len(h.privMSHR[core]); n != 0 {
			w.Fail(fmt.Errorf("%w: core %d has %d private MSHRs in flight", snap.ErrNotQuiescent, core, n))
			return
		}
		if h.privPend[core].Len() != 0 {
			w.Fail(fmt.Errorf("%w: core %d has parked miss requests", snap.ErrNotQuiescent, core))
			return
		}
	}
	for b := range h.l3 {
		if n := len(h.l3MSHR[b]); n != 0 {
			w.Fail(fmt.Errorf("%w: L3 bank %d has %d MSHRs in flight", snap.ErrNotQuiescent, b, n))
			return
		}
	}
	w.Int(len(h.l1))
	w.Int(len(h.l3))
	for core := range h.l1 {
		h.l1[core].SnapshotTo(w)
		h.l2[core].SnapshotTo(w)
		h.coreOut[core].SnapshotTo(w)
		h.coreIn[core].SnapshotTo(w)
	}
	for b := range h.l3 {
		h.l3[b].SnapshotTo(w)
		h.bankSrv[b].SnapshotTo(w)
	}
	h.AccessLatency.SnapshotTo(w)
}

// RestoreFrom loads hierarchy state saved by SnapshotTo. The target
// hierarchy must itself be quiescent — restoring over in-flight misses
// would leave MSHR entries pointing at pre-restore state.
func (h *Hierarchy) RestoreFrom(r *snap.Reader) {
	r.Section("HIER")
	for core := range h.l1 {
		if n := len(h.privMSHR[core]); n != 0 {
			r.Fail(fmt.Errorf("%w: restore target core %d has %d private MSHRs in flight", snap.ErrNotQuiescent, core, n))
			return
		}
		if h.privPend[core].Len() != 0 {
			r.Fail(fmt.Errorf("%w: restore target core %d has parked miss requests", snap.ErrNotQuiescent, core))
			return
		}
	}
	for b := range h.l3 {
		if n := len(h.l3MSHR[b]); n != 0 {
			r.Fail(fmt.Errorf("%w: restore target L3 bank %d has %d MSHRs in flight", snap.ErrNotQuiescent, b, n))
			return
		}
	}
	cores, banks := r.Int(), r.Int()
	if r.Err() != nil {
		return
	}
	if cores != len(h.l1) || banks != len(h.l3) {
		r.Fail(fmt.Errorf("cache: hierarchy has %d cores / %d banks, snapshot has %d / %d",
			len(h.l1), len(h.l3), cores, banks))
		return
	}
	for core := range h.l1 {
		h.l1[core].RestoreFrom(r)
		h.l2[core].RestoreFrom(r)
		h.coreOut[core].RestoreFrom(r)
		h.coreIn[core].RestoreFrom(r)
	}
	for b := range h.l3 {
		h.l3[b].RestoreFrom(r)
		h.bankSrv[b].RestoreFrom(r)
	}
	h.AccessLatency.RestoreFrom(r)
}
