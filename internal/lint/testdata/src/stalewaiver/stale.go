// Driver-level stale-waiver suite (no want comments — the driver test
// asserts on Analyze's output directly): the scratch waiver suppresses
// real snapcomplete findings and must NOT be reported; the directive
// above Snap excuses nothing, and the hotalloc directive names an
// analyzer that reports nothing in this package — both are stale.
package stalewaiver

type C struct{ out []int64 }

func (c *C) I64(v *int64) { c.out = append(c.out, *v) }

type Box struct {
	clock   int64
	scratch []int64 //peilint:allow snapcomplete derived scratch space, rebuilt on demand
}

func (b *Box) Step() { b.clock++; b.scratch = b.scratch[:0] }

//peilint:allow snapcomplete stale by construction: Snap below is complete
func (b *Box) Snap(c *C) { c.I64(&b.clock) }

//peilint:allow hotalloc stale by construction: hotalloc reports nothing here
func (b *Box) Format() { _ = b.clock }
