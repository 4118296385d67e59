package stats

import (
	"fmt"
	"sort"

	"pimsim/internal/snap"
)

// SnapshotTo serializes every counter as (name, value) pairs in sorted
// name order — not interning order, which depends on when each counter
// was first touched (a restored machine appends names its snapshot
// brought in). Sorting makes the byte stream, and therefore the
// content-addressed blob, a function of the counter values alone.
func (r *Registry) SnapshotTo(w *snap.Writer) {
	w.Section("SREG")
	sorted := make([]string, len(r.names))
	copy(sorted, r.names)
	sort.Strings(sorted)
	w.Int(len(sorted))
	for _, n := range sorted {
		w.String(n)
		w.I64(r.vals[r.index[n]])
	}
}

// RestoreFrom sets counters by name from a SnapshotTo stream. Names are
// matched against the existing interning table, so Handles held by
// already-constructed components keep their indices; a name the current
// registry has not interned is added at the end (harmless — it can only
// happen when the snapshot holds late-interned names the fresh machine
// has not reached yet). Counters present in the registry but absent
// from the stream are left untouched.
func (r *Registry) RestoreFrom(rd *snap.Reader) {
	rd.Section("SREG")
	n := rd.Int()
	for i := 0; i < n; i++ {
		name := rd.String()
		val := rd.I64()
		if rd.Err() != nil {
			return
		}
		r.Set(name, val)
	}
}

// SnapshotTo serializes the histogram's bounds and all observation
// state.
func (h *Histogram) SnapshotTo(w *snap.Writer) {
	w.Section("HIST")
	w.I64s(h.Bounds)
	w.I64s(h.Counts)
	w.I64(h.Overflow)
	w.I64(h.N)
	w.I64(h.Sum)
	w.I64(h.Max)
}

// RestoreFrom loads observation state into h. The bucket bounds must
// match the snapshot's exactly — differing bounds mean the machine was
// built from a different configuration.
func (h *Histogram) RestoreFrom(r *snap.Reader) {
	r.Section("HIST")
	bounds := r.I64s()
	if r.Err() != nil {
		return
	}
	if len(bounds) != len(h.Bounds) {
		r.Fail(fmt.Errorf("stats: histogram has %d bounds, snapshot has %d", len(h.Bounds), len(bounds)))
		return
	}
	for i, b := range bounds {
		if b != h.Bounds[i] {
			r.Fail(fmt.Errorf("stats: histogram bound %d is %d, snapshot has %d", i, h.Bounds[i], b))
			return
		}
	}
	r.I64sInto(h.Counts)
	h.Overflow = r.I64()
	h.N = r.I64()
	h.Sum = r.I64()
	h.Max = r.I64()
}
