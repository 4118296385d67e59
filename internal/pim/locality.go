package pim

import (
	"pimsim/internal/addr"
	"pimsim/internal/stats"
)

// Monitor is the locality monitor of §4.3: a tag array with the same
// sets/ways as the last-level cache, holding a valid bit, a partial tag
// (XOR-folded), LRU bits, and the 1-bit ignore flag. It is updated by
// every L3 access *and* by every PIM operation issued to memory, so a
// block's locality is tracked no matter where its PEIs execute.
//
// Predict reports the locality decision for a PEI: true means "high
// locality — execute on the host". The first hit on an entry allocated
// by a PIM issue is ignored (flag), damping one-off re-references.
type Monitor struct {
	sets, ways int
	entries    []monEntry
	clock      uint64

	partialBits uint
	useIgnore   bool
	// ideal uses full tags (no aliasing), §7.6's idealized monitor.
	ideal bool

	cHit, cMiss, cIgnoredHit stats.Handle
}

// monEntry is one monitor way, 16 bytes: the tag word carries the
// ignore flag in its top bit (tags are block numbers divided by the set
// count, far below it), and an LRU stamp of 0 marks an invalid way —
// the clock is incremented before every stamp, so valid stamps are >= 1.
type monEntry struct {
	tag uint64 // partial (or, ideal, full) tag | ignoreBit
	lru uint64
}

const ignoreBit = 1 << 63

// NewMonitor creates a monitor with the L3's geometry.
func NewMonitor(sets, ways int, partialBits uint, useIgnore, ideal bool, reg *stats.Registry) *Monitor {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("pim: bad monitor geometry")
	}
	return &Monitor{
		sets: sets, ways: ways,
		entries:     make([]monEntry, sets*ways),
		partialBits: partialBits,
		useIgnore:   useIgnore,
		ideal:       ideal,
		cHit:        reg.Counter("pmu.monitor_hit"),
		cMiss:       reg.Counter("pmu.monitor_miss"),
		cIgnoredHit: reg.Counter("pmu.monitor_ignored_hit"),
	}
}

func (m *Monitor) set(blk uint64) []monEntry {
	s := int(blk) & (m.sets - 1)
	return m.entries[s*m.ways : (s+1)*m.ways]
}

func (m *Monitor) tagOf(blk uint64) uint64 {
	full := blk / uint64(m.sets)
	if m.ideal {
		return full
	}
	return addr.XORFold(full, m.partialBits)
}

func (m *Monitor) find(blk uint64) *monEntry {
	set := m.set(blk)
	tag := m.tagOf(blk)
	for i := range set {
		if set[i].tag&^ignoreBit == tag && set[i].lru != 0 {
			return &set[i]
		}
	}
	return nil
}

// touch promotes or allocates blk's entry; fromPIM controls the ignore
// flag on allocation.
func (m *Monitor) touch(blk uint64, fromPIM bool) *monEntry {
	m.clock++
	if e := m.find(blk); e != nil {
		e.lru = m.clock
		return e
	}
	set := m.set(blk)
	victim := &set[0]
	for i := range set {
		if set[i].lru == 0 {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	*victim = monEntry{tag: m.tagOf(blk), lru: m.clock}
	if fromPIM && m.useIgnore {
		victim.tag |= ignoreBit
	}
	return victim
}

// OnCacheAccess mirrors an L3 access to blk (hook from the hierarchy).
func (m *Monitor) OnCacheAccess(blk uint64) {
	m.touch(blk, false)
}

// OnPIMIssue mirrors a PIM operation sent to memory, updating the
// monitor as if the L3 had been accessed (§4.3).
func (m *Monitor) OnPIMIssue(blk uint64) {
	m.touch(blk, true)
}

// Predict reports whether the PEI targeting blk should run on the host
// (host=true) or in memory, applying the ignore-flag rule: the first hit
// on a PIM-allocated entry is treated as low locality and clears the
// flag. miss reports a true tag-array miss, the case where balanced
// dispatch (§7.4) is allowed to override the decision.
func (m *Monitor) Predict(blk uint64) (host, miss bool) {
	e := m.find(blk)
	if e == nil {
		m.cMiss.Inc()
		return false, true
	}
	if e.tag&ignoreBit != 0 {
		e.tag &^= ignoreBit
		m.cIgnoredHit.Inc()
		return false, false
	}
	m.cHit.Inc()
	return true, false
}
