package cache

import (
	"bytes"
	"testing"

	"pimsim/internal/snap"
)

// TestCacheSnapRejectsCorruptLine pins strict decoding: a MESI state
// byte above Modified, or a dirty flag other than 0/1 — bytes the
// encoder never writes — fails the restore instead of loading a line
// no coherence path could have produced.
func TestCacheSnapRejectsCorruptLine(t *testing.T) {
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	New(4, 2).Snap(enc)
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Header (magic + version), the CACH tag, then sets, ways, clock,
	// hits and misses; line 0 follows as key, state, dirty, ...
	const state = 8 + 4 + 4 + 5*8 + 8
	restore := func(blob []byte) error {
		dec, err := snap.NewDecoder(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		New(4, 2).Snap(dec)
		return dec.Err()
	}
	if err := restore(buf.Bytes()); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	for _, tc := range []struct {
		name string
		off  int
		b    byte
	}{
		{"state", state, uint8(Modified) + 1},
		{"dirty", state + 1, 2},
	} {
		blob := bytes.Clone(buf.Bytes())
		blob[tc.off] = tc.b
		if err := restore(blob); err == nil {
			t.Errorf("%s byte %d restored without error", tc.name, tc.b)
		}
	}
}
