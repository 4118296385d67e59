package stats

import "pimsim/internal/snap"

// Snap codes every counter as (name, value) pairs. Encoding writes
// them in sorted name order — not interning order, which depends on
// when each counter was first touched (a restored machine appends names
// its snapshot brought in). Sorting makes the byte stream, and
// therefore the content-addressed blob, a function of the counter
// values alone.
//
// Decoding sets counters by name. Names are matched against the
// existing interning table, so Handles held by already-constructed
// components keep their indices; a name the current registry has not
// interned is added at the end (harmless — it can only happen when the
// snapshot holds late-interned names the fresh machine has not reached
// yet). Counters present in the registry but absent from the stream are
// left untouched.
func (r *Registry) Snap(c *snap.Coder) {
	c.Section("SREG")
	if c.Decoding() {
		var n int
		c.Len(&n)
		for i := 0; i < n && c.Err() == nil; i++ {
			var name string
			var val int64
			c.String(&name)
			c.I64(&val)
			if c.Err() == nil {
				r.Set(name, val)
			}
		}
		return
	}
	names := r.Names()
	n := len(names)
	c.Len(&n)
	for _, name := range names {
		c.String(&name)
		c.I64(&r.vals[r.index[name]])
	}
}

// Snap codes the histogram's observation state. The bucket bounds are
// coded as geometry: restoring requires them to match the snapshot's
// exactly, since differing bounds mean the machine was built from a
// different configuration.
func (h *Histogram) Snap(c *snap.Coder) {
	c.Section("HIST")
	c.Expect("stats: histogram bounds", len(h.Bounds))
	for _, b := range h.Bounds {
		c.Expect("stats: histogram bound", int(b))
	}
	c.I64s(h.Counts)
	c.I64(&h.Overflow)
	c.I64(&h.N)
	c.I64(&h.Sum)
	c.I64(&h.Max)
}
