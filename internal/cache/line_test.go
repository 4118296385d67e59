package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"

	"pimsim/internal/snap"
)

// TestLineIs16Bytes pins the packed tag record: four lines per host
// cache line, and no sharer word in the private caches.
func TestLineIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 16 {
		t.Fatalf("sizeof(Line) = %d, want 16", n)
	}
}

// refLine and refCache are the unpacked records the packed Cache
// replaced, kept as a reference model: every field its own word, the
// sharer mask in the line.
type refLine struct {
	Key     uint64
	State   State
	Dirty   bool
	Sharers uint64
	lru     uint64
}

type refCache struct {
	sets, ways   int
	lines        []refLine
	clock        uint64
	Hits, Misses int64
}

// base returns the index of the first way of key's set.
func (c *refCache) base(key uint64) int { return (int(key) & (c.sets - 1)) * c.ways }

func (c *refCache) Lookup(key uint64) int {
	if i := c.Peek(key); i >= 0 {
		c.clock++
		c.lines[i].lru = c.clock
		c.Hits++
		return i
	}
	c.Misses++
	return -1
}

func (c *refCache) Peek(key uint64) int {
	for i := c.base(key); i < c.base(key)+c.ways; i++ {
		if c.lines[i].State != Invalid && c.lines[i].Key == key {
			return i
		}
	}
	return -1
}

func (c *refCache) Victim(key uint64) int {
	best := c.base(key)
	for i := best; i < c.base(key)+c.ways; i++ {
		if c.lines[i].State == Invalid {
			return i
		}
		if c.lines[i].lru < c.lines[best].lru {
			best = i
		}
	}
	return best
}

func (c *refCache) Insert(i int, key uint64, st State) {
	c.clock++
	c.lines[i] = refLine{Key: key, State: st, lru: c.clock}
}

func (c *refCache) Invalidate(key uint64) (refLine, bool) {
	if i := c.Peek(key); i >= 0 {
		old := c.lines[i]
		c.lines[i] = refLine{}
		return old, true
	}
	return refLine{}, false
}

// sameLine reports whether the packed line i (with its sharer mask)
// holds exactly what the reference line holds.
func sameLine(c *Cache, i int, r refLine) bool {
	l := c.Line(i)
	var sharers uint64
	if c.sharers != nil {
		sharers = c.sharers[i]
	}
	return l.Key == r.Key && l.State() == r.State && l.Dirty() == r.Dirty &&
		l.lru() == r.lru && sharers == r.Sharers
}

// TestCacheMatchesReference drives the packed cache and the unpacked
// reference through the same random Lookup/Peek/Victim/Insert/
// Invalidate sequences, with the in-place state, dirty and sharer
// updates the hierarchy makes. Every result, both counters and every
// line — key, state, dirty bit, sharers and LRU stamp, so the LRU order
// too — must agree after every step.
func TestCacheMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets, ways := 1<<rng.Intn(4), 1+rng.Intn(8)
		shared := seed%2 == 0
		c := New(sets, ways)
		if shared {
			c = NewShared(sets, ways)
		}
		ref := &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
		keys := uint64(sets * ways * 3)
		for step := 0; step < 5000; step++ {
			key := uint64(rng.Int63n(int64(keys)))
			switch op := rng.Intn(7); op {
			case 0:
				got, want := -1, ref.Lookup(key)
				if l := c.Lookup(key); l != nil {
					got = c.find(key)
				}
				if got != want {
					t.Fatalf("seed %d step %d: Lookup(%d) = %d, reference %d", seed, step, key, got, want)
				}
			case 1:
				got, want := -1, ref.Peek(key)
				if l := c.Peek(key); l != nil {
					got = c.find(key)
				}
				if got != want {
					t.Fatalf("seed %d step %d: Peek(%d) = %d, reference %d", seed, step, key, got, want)
				}
			case 2, 3:
				if ref.Peek(key) >= 0 {
					continue // the hierarchy inserts only absent keys
				}
				got, want := c.Victim(key), ref.Victim(key)
				if got != want {
					t.Fatalf("seed %d step %d: Victim(%d) = %d, reference %d", seed, step, key, got, want)
				}
				st := State(1 + rng.Intn(3))
				c.Insert(got, key, st)
				ref.Insert(want, key, st)
			case 4:
				got, gotOK := c.Invalidate(key)
				want, wantOK := ref.Invalidate(key)
				if gotOK != wantOK || got.Key != want.Key || got.State() != want.State || got.Dirty() != want.Dirty || got.lru() != want.lru {
					t.Fatalf("seed %d step %d: Invalidate(%d) = %+v %v, reference %+v %v", seed, step, key, got, gotOK, want, wantOK)
				}
			default:
				i := ref.Peek(key)
				if i < 0 {
					continue
				}
				st, dirty := State(1+rng.Intn(3)), rng.Intn(2) == 0
				c.Line(i).SetState(st)
				c.Line(i).SetDirty(dirty)
				ref.lines[i].State, ref.lines[i].Dirty = st, dirty
				if shared {
					m := rng.Uint64() & 0xffff
					c.sharers[i] = m
					ref.lines[i].Sharers = m
				}
			}
			if c.Hits != ref.Hits || c.Misses != ref.Misses || c.clock != ref.clock {
				t.Fatalf("seed %d step %d: hits/misses/clock %d/%d/%d, reference %d/%d/%d",
					seed, step, c.Hits, c.Misses, c.clock, ref.Hits, ref.Misses, ref.clock)
			}
			for i := range ref.lines {
				if !sameLine(c, i, ref.lines[i]) {
					t.Fatalf("seed %d step %d: line %d = %+v, reference %+v", seed, step, i, c.lines[i], ref.lines[i])
				}
			}
		}
	}
}

// TestCacheSnapRejectsUnpackable pins the range checks of the packed
// restore: a clock or LRU stamp the 61-bit stamp field cannot hold, a
// stamp above the clock, or a sharer mask on a private cache fails the
// restore instead of spilling into the state bits or being dropped.
func TestCacheSnapRejectsUnpackable(t *testing.T) {
	encode := func(c *Cache) []byte {
		var buf bytes.Buffer
		enc := snap.NewEncoder(&buf)
		c.Snap(enc)
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	restore := func(c *Cache, blob []byte) error {
		dec, err := snap.NewDecoder(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		c.Snap(dec)
		return dec.Err()
	}
	src := NewShared(4, 2)
	src.Insert(src.Victim(4), 4, Modified)
	src.Line(src.find(4)).SetDirty(true)
	src.sharers[src.find(4)] = 0b101
	blob := encode(src)
	dst := NewShared(4, 2)
	if err := restore(dst, blob); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	for i := range src.lines {
		if dst.lines[i] != src.lines[i] || dst.sharers[i] != src.sharers[i] {
			t.Fatalf("line %d restored as %+v/%#x, want %+v/%#x", i, dst.lines[i], dst.sharers[i], src.lines[i], src.sharers[i])
		}
	}

	// Header (magic + version), the CACH tag, sets, ways; then the
	// clock, hits and misses; line 0 follows as key, state, dirty,
	// sharers and LRU stamp.
	const clock = 8 + 4 + 4 + 2*8
	const line0 = clock + 3*8
	const sharers0, lru0 = line0 + 8 + 2, line0 + 8 + 2 + 8
	patch := func(off int, v uint64) []byte {
		b := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	for _, tc := range []struct {
		name string
		c    *Cache
		blob []byte
	}{
		{"clock at lruLimit", NewShared(4, 2), patch(clock, lruLimit)},
		{"stamp above clock", NewShared(4, 2), patch(lru0, src.clock+1)},
		{"stamp at lruLimit", NewShared(4, 2), patch(lru0, lruLimit)},
		{"sharers on a private cache", New(4, 2), blob},
	} {
		if err := restore(tc.c, tc.blob); err == nil {
			t.Errorf("%s: restored without error", tc.name)
		}
	}

	// A private cache codes a zero sharer word and restores its own blob.
	priv := New(4, 2)
	priv.Insert(priv.Victim(4), 4, Exclusive)
	pblob := encode(priv)
	if got := binary.LittleEndian.Uint64(pblob[sharers0:]); got != 0 {
		t.Fatalf("private cache coded sharers %#x, want 0", got)
	}
	if err := restore(New(4, 2), pblob); err != nil {
		t.Fatalf("private round trip: %v", err)
	}
}
