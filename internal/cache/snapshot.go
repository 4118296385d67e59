package cache

import (
	"fmt"

	"pimsim/internal/snap"
)

// Snap codes the tag array: geometry (verified on restore), the LRU
// clock, hit/miss counters, and every line including its unexported
// LRU stamp — replacement decisions after a resume must match the cold
// run's exactly.
func (c *Cache) Snap(sc *snap.Coder) {
	sc.Section("CACH")
	sc.Expect("cache: sets", c.sets)
	sc.Expect("cache: ways", c.ways)
	sc.U64(&c.clock)
	sc.I64(&c.Hits)
	sc.I64(&c.Misses)
	for i := range c.lines {
		l := &c.lines[i]
		sc.U64(&l.Key)
		st := uint8(l.State)
		sc.Enum(&st, uint8(Modified)+1)
		l.State = State(st)
		sc.Bool(&l.Dirty)
		sc.U64(&l.Sharers)
		sc.U64(&l.lru)
	}
}

// Snap codes the whole hierarchy: every cache level, the crossbar and
// bank-service links, and the access-latency histogram. MSHR files,
// pend queues, and transaction pools must be empty on both sides — an
// in-flight miss at a "quiescent" boundary is a quiescence-protocol
// bug, and restoring over one would leave MSHR entries pointing at
// pre-restore state.
func (h *Hierarchy) Snap(c *snap.Coder) {
	c.Section("HIER")
	for core := range h.l1 {
		if n := len(h.privMSHR[core]); n != 0 {
			c.Fail(fmt.Errorf("%w: core %d has %d private MSHRs in flight", snap.ErrNotQuiescent, core, n))
			return
		}
		if h.privPend[core].Len() != 0 {
			c.Fail(fmt.Errorf("%w: core %d has parked miss requests", snap.ErrNotQuiescent, core))
			return
		}
	}
	for b := range h.l3 {
		if n := len(h.l3MSHR[b]); n != 0 {
			c.Fail(fmt.Errorf("%w: L3 bank %d has %d MSHRs in flight", snap.ErrNotQuiescent, b, n))
			return
		}
	}
	c.Expect("cache: hierarchy cores", len(h.l1))
	c.Expect("cache: hierarchy L3 banks", len(h.l3))
	for core := range h.l1 {
		h.l1[core].Snap(c)
		h.l2[core].Snap(c)
		h.coreOut[core].Snap(c)
		h.coreIn[core].Snap(c)
	}
	for b := range h.l3 {
		h.l3[b].Snap(c)
		h.bankSrv[b].Snap(c)
	}
	h.AccessLatency.Snap(c)
}
