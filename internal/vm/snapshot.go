package vm

import (
	"slices"

	"pimsim/internal/snap"
)

// Snap codes the page table. Translations live in maps, so encoding
// writes them in sorted-vpn order — map iteration order must never
// reach the byte stream (the blob digest is content-addressed) — and
// decoding replaces the maps with the snapshot's contents.
func (pt *PageTable) Snap(c *snap.Coder) {
	c.Section("PGTB")
	c.U64(&pt.next)
	if c.Decoding() {
		var n int
		c.Len(&n)
		pt.entries = make(map[uint64]uint64)
		for i := 0; i < n && c.Err() == nil; i++ {
			var vpn, pfn uint64
			c.U64(&vpn)
			c.U64(&pfn)
			pt.entries[vpn] = pfn
		}
		c.Len(&n)
		pt.readOnly = make(map[uint64]bool)
		for i := 0; i < n && c.Err() == nil; i++ {
			var vpn uint64
			c.U64(&vpn)
			pt.readOnly[vpn] = true
		}
		return
	}
	vpns := sortedKeys(pt.entries)
	n := len(vpns)
	c.Len(&n)
	for _, vpn := range vpns {
		pfn := pt.entries[vpn]
		c.U64(&vpn)
		c.U64(&pfn)
	}
	// Protect only ever stores true, so every key is a read-only page.
	ros := sortedKeys(pt.readOnly)
	c.U64s(ros)
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Snap codes the TLB of identical capacity: every slot with its LRU
// stamp, the LRU clock, and the hit/miss counters.
func (t *TLB) Snap(c *snap.Coder) {
	c.Section("TLB ")
	c.Expect("vm: TLB entries", t.entries)
	c.U64(&t.clock)
	c.I64(&t.Hits)
	c.I64(&t.Misses)
	for i := range t.slots {
		s := &t.slots[i]
		c.Bool(&s.valid)
		c.U64(&s.vpn)
		c.U64(&s.pfn)
		c.U64(&s.lru)
	}
}
