package stats

import (
	"bytes"
	"reflect"
	"testing"

	"pimsim/internal/snap"
)

// snapshotOf encodes a component into a fresh snap stream and hands
// back a decoder positioned after the header.
func snapshotOf(t *testing.T, write func(*snap.Coder)) *snap.Coder {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewEncoder(&buf)
	write(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	r, err := snap.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRegistrySnapshotRestoreRoundTrip pins the registry's restore
// semantics: values travel by name, not by interning index, so a target
// registry that interned a different subset in a different order — what
// every freshly built machine is relative to the snapshotted one — ends
// up with the snapshot's values while Handles its components already
// hold keep addressing the right counters.
func TestRegistrySnapshotRestoreRoundTrip(t *testing.T) {
	src := NewRegistry()
	src.Add("zeta.ops", 7)
	src.Add("alpha.hits", 42)
	src.Add("vault.0.accesses", -3)

	rd := snapshotOf(t, src.Snap)

	// The target interns in a different order, holds a pre-restore
	// Handle, carries a stale value, and owns a counter the snapshot
	// does not mention.
	dst := NewRegistry()
	h := dst.Counter("vault.0.accesses")
	dst.Add("alpha.hits", 999) // stale; restore must overwrite
	dst.Add("dst.only", 5)     // absent from the stream; must survive

	dst.Snap(rd)
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]int64{
		"zeta.ops":         7,
		"alpha.hits":       42,
		"vault.0.accesses": -3,
		"dst.only":         5,
	} {
		if got := dst.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// The pre-restore Handle still addresses its counter: interning
	// indices were not disturbed by the by-name restore.
	if h.Name() != "vault.0.accesses" || h.Get() != -3 {
		t.Fatalf("handle destabilized: name %q value %d", h.Name(), h.Get())
	}
	h.Add(1)
	if got := dst.Get("vault.0.accesses"); got != -2 {
		t.Fatalf("handle write went to the wrong counter: %d", got)
	}
}

// TestRegistrySnapshotOrderIndependentBytes pins that two registries
// with identical counters but different interning orders serialize to
// the same bytes, so a blob depends on counter values alone.
func TestRegistrySnapshotOrderIndependentBytes(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Add("x", 1)
	a.Add("y", 2)
	b.Add("y", 2)
	b.Add("x", 1)

	dump := func(r *Registry) []byte {
		var buf bytes.Buffer
		w := snap.NewEncoder(&buf)
		r.Snap(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(dump(a), dump(b)) {
		t.Fatal("interning order leaked into the snapshot bytes")
	}
}

// TestHistogramSnapshotRoundTrip: full observation state survives, and
// a bounds mismatch (a histogram built from a different configuration)
// fails loudly instead of loading garbage.
func TestHistogramSnapshotRoundTrip(t *testing.T) {
	src := NewHistogram(1, 10, 100)
	for _, v := range []int64{0, 5, 5, 42, 1000, -7} {
		src.Observe(v)
	}
	rd := snapshotOf(t, src.Snap)
	dst := NewHistogram(1, 10, 100)
	dst.Observe(3) // pre-existing state; restore must replace it
	dst.Snap(rd)
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("histogram round trip diverged:\nsrc %+v\ndst %+v", src, dst)
	}

	rd2 := snapshotOf(t, src.Snap)
	other := NewHistogram(1, 10, 100, 1000)
	other.Snap(rd2)
	if rd2.Err() == nil {
		t.Fatal("bounds mismatch restored without error")
	}
}
