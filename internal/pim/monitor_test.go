package pim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"

	"pimsim/internal/addr"
	"pimsim/internal/snap"
	"pimsim/internal/stats"
)

// TestMonEntryIs16Bytes pins the packed monitor way: tag with the
// ignore flag folded in, plus an LRU stamp that doubles as valid bit.
func TestMonEntryIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(monEntry{}); n != 16 {
		t.Fatalf("sizeof(monEntry) = %d, want 16", n)
	}
}

// refEntry and refMonitor are the unpacked monitor records the packed
// Monitor replaced, kept as a reference model.
type refEntry struct {
	valid  bool
	tag    uint64
	lru    uint64
	ignore bool
}

type refMonitor struct {
	sets, ways  int
	entries     []refEntry
	clock       uint64
	partialBits uint
	useIgnore   bool
	ideal       bool
}

func (m *refMonitor) tagOf(blk uint64) uint64 {
	full := blk / uint64(m.sets)
	if m.ideal {
		return full
	}
	return addr.XORFold(full, m.partialBits)
}

func (m *refMonitor) find(blk uint64) int {
	b := (int(blk) & (m.sets - 1)) * m.ways
	for i := b; i < b+m.ways; i++ {
		if m.entries[i].valid && m.entries[i].tag == m.tagOf(blk) {
			return i
		}
	}
	return -1
}

func (m *refMonitor) touch(blk uint64, fromPIM bool) {
	m.clock++
	if i := m.find(blk); i >= 0 {
		m.entries[i].lru = m.clock
		return
	}
	b := (int(blk) & (m.sets - 1)) * m.ways
	victim := b
	for i := b; i < b+m.ways; i++ {
		if !m.entries[i].valid {
			victim = i
			break
		}
		if m.entries[i].lru < m.entries[victim].lru {
			victim = i
		}
	}
	m.entries[victim] = refEntry{valid: true, tag: m.tagOf(blk), lru: m.clock, ignore: fromPIM && m.useIgnore}
}

func (m *refMonitor) Predict(blk uint64) (host, miss bool) {
	i := m.find(blk)
	if i < 0 {
		return false, true
	}
	if m.entries[i].ignore {
		m.entries[i].ignore = false
		return false, false
	}
	return true, false
}

// TestMonitorMatchesReference drives the packed monitor and the
// unpacked reference through the same random OnCacheAccess/OnPIMIssue/
// Predict sequences, with partial and ideal tags and the ignore flag on
// and off. Every prediction and every way — valid bit, tag, ignore flag
// and LRU stamp, so the LRU order too — must agree after every step.
func TestMonitorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets, ways := 1<<rng.Intn(4), 1+rng.Intn(8)
		useIgnore, ideal := seed&1 == 0, seed&2 == 0
		bits := uint(1 + rng.Intn(4))
		m := NewMonitor(sets, ways, bits, useIgnore, ideal, stats.NewRegistry())
		ref := &refMonitor{sets: sets, ways: ways, entries: make([]refEntry, sets*ways),
			partialBits: bits, useIgnore: useIgnore, ideal: ideal}
		blocks := int64(sets * ways * 8)
		for step := 0; step < 5000; step++ {
			blk := uint64(rng.Int63n(blocks))
			switch rng.Intn(3) {
			case 0:
				m.OnCacheAccess(blk)
				ref.touch(blk, false)
			case 1:
				m.OnPIMIssue(blk)
				ref.touch(blk, true)
			default:
				host, miss := m.Predict(blk)
				wantHost, wantMiss := ref.Predict(blk)
				if host != wantHost || miss != wantMiss {
					t.Fatalf("seed %d step %d: Predict(%d) = (%v,%v), reference (%v,%v)",
						seed, step, blk, host, miss, wantHost, wantMiss)
				}
			}
			if m.clock != ref.clock {
				t.Fatalf("seed %d step %d: clock %d, reference %d", seed, step, m.clock, ref.clock)
			}
			for i, r := range ref.entries {
				e := m.entries[i]
				if (e.lru != 0) != r.valid || e.tag&^ignoreBit != r.tag || e.lru != r.lru || (e.tag&ignoreBit != 0) != r.ignore {
					t.Fatalf("seed %d step %d: entry %d = %+v, reference %+v", seed, step, i, e, r)
				}
			}
		}
	}
}

// TestMonitorSnapRejectsUnpackable pins the range checks of the packed
// restore: the valid flag must agree with the stamp (0 means invalid),
// no stamp may pass the clock, and no tag may reach the ignore bit.
func TestMonitorSnapRejectsUnpackable(t *testing.T) {
	src := NewMonitor(2, 2, 10, true, false, stats.NewRegistry())
	src.OnPIMIssue(2) // entry 0 of set 0: valid, ignore flag set
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	src.Snap(enc)
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	restore := func(blob []byte) (*Monitor, error) {
		dec, err := snap.NewDecoder(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor(2, 2, 10, true, false, stats.NewRegistry())
		m.Snap(dec)
		return m, dec.Err()
	}
	dst, err := restore(blob)
	if err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	for i := range src.entries {
		if dst.entries[i] != src.entries[i] {
			t.Fatalf("entry %d restored as %+v, want %+v", i, dst.entries[i], src.entries[i])
		}
	}

	// Header (magic + version), the LMON tag, sets, ways and the clock;
	// entry 0 follows as valid, tag, LRU stamp and ignore, entry 1 after.
	const entry0 = 8 + 4 + 4 + 3*8
	const tag0, lru0, entry1 = entry0 + 1, entry0 + 1 + 8, entry0 + 1 + 8 + 8 + 1
	patch := func(off int, v uint64, width int) []byte {
		b := bytes.Clone(blob)
		if width == 1 {
			b[off] = byte(v)
		} else {
			binary.LittleEndian.PutUint64(b[off:], v)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"valid entry stamped 0", patch(lru0, 0, 8)},
		{"invalid entry stamped", patch(entry1+1+8, 1, 8)},
		{"stamp above clock", patch(lru0, src.clock+1, 8)},
		{"tag at the ignore bit", patch(tag0, ignoreBit, 8)},
		{"valid byte 2", patch(entry0, 2, 1)},
	} {
		if _, err := restore(tc.blob); err == nil {
			t.Errorf("%s: restored without error", tc.name)
		}
	}
}
