// Phase-boundary serialization: the whole file is exempt from hotalloc
// (none of the calls below carry a want comment), pinning the
// snapshot.go carve-out.
package hotalloc

import "fmt"

// Snap formats freely: it runs once per quiescent boundary, never
// inside the event loop.
func (q *Queue) Snap() error {
	return fmt.Errorf("snapshot of %s", q.name)
}

func (q *Queue) snapshotLabel(part int) string {
	return q.name + fmt.Sprintf("-%d", part)
}
