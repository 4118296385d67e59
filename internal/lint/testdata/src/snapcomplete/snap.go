// Golden suite for the snapcomplete analyzer: a complete Snap passes,
// the seeded missing-field regression fires, and waived pool fields
// are suppressed.
package snapcomplete

// C stands in for snap.Coder.
type C struct{ out []int64 }

func (c *C) I64(v *int64) { c.out = append(c.out, *v) }

// Complete codes every mutable field; the never-assigned cfg field is
// immutable and imposes no obligation.
type Complete struct {
	cfg   int64
	clock int64
	hits  int64
}

func (c *Complete) Step() { c.clock++; c.hits++ }

func (c *Complete) Snap(sc *C) { sc.I64(&c.clock); sc.I64(&c.hits) }

// Missing is the seeded regression: cursor is advanced by Step but
// absent from Snap — the exact bug class that corrupts warm starts
// silently.
type Missing struct {
	clock  int64
	cursor int64 // want `cursor.*not referenced by Snap`
}

func (m *Missing) Step() { m.clock++; m.cursor++ }

func (m *Missing) Snap(c *C) { c.I64(&m.clock) }

// Pooled waives its free list: pools recycle capacity, not state.
type Pooled struct {
	clock int64
	free  []int64 //peilint:allow snapcomplete pool of recycled slots, rebuilt empty on restore
}

func (p *Pooled) Step() { p.clock++; p.free = append(p.free, p.clock) }

func (p *Pooled) Snap(c *C) { c.I64(&p.clock) }
