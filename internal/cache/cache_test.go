package cache

import (
	"testing"
	"testing/quick"
)

func TestLookupMissThenHit(t *testing.T) {
	c := New(4, 2)
	if c.Lookup(10) != nil {
		t.Fatal("unexpected hit in empty cache")
	}
	c.Insert(c.Victim(10), 10, Shared)
	l := c.Lookup(10)
	if l == nil || l.Key != 10 || l.State() != Shared {
		t.Fatalf("lookup after insert: %+v", l)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1, 2) // one set, two ways
	c.Insert(c.Victim(0), 0, Shared)
	c.Insert(c.Victim(1), 1, Shared)
	c.Lookup(0) // promote 0; 1 is now LRU
	v := c.Line(c.Victim(2))
	if v.Key != 1 {
		t.Fatalf("victim key = %d, want 1", v.Key)
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := New(1, 4)
	c.Insert(c.Victim(0), 0, Modified)
	v := c.Line(c.Victim(1))
	if v.State() != Invalid {
		t.Fatal("victim should be an invalid way while one exists")
	}
}

func TestSetIsolation(t *testing.T) {
	c := New(4, 1)
	// Keys 0..3 land in distinct sets; none evict each other.
	for k := uint64(0); k < 4; k++ {
		c.Insert(c.Victim(k), k, Shared)
	}
	for k := uint64(0); k < 4; k++ {
		if c.Peek(k) == nil {
			t.Fatalf("key %d evicted despite distinct sets", k)
		}
	}
	// Key 4 aliases set 0 and evicts key 0 only.
	c.Insert(c.Victim(4), 4, Shared)
	if c.Peek(0) != nil || c.Peek(4) == nil {
		t.Fatal("aliasing eviction wrong")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(2, 2)
	c.Insert(c.Victim(5), 5, Modified)
	c.Peek(5).SetDirty(true)
	old, ok := c.Invalidate(5)
	if !ok || !old.Dirty() || old.State() != Modified {
		t.Fatalf("invalidate returned %+v, %v", old, ok)
	}
	if _, ok := c.Invalidate(5); ok {
		t.Fatal("double invalidate reported presence")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := New(1, 2)
	c.Insert(c.Victim(0), 0, Shared)
	c.Insert(c.Victim(1), 1, Shared)
	c.Peek(0) // must not promote
	if v := c.Line(c.Victim(2)); v.Key != 0 {
		t.Fatalf("Peek promoted: victim = %d, want 0", v.Key)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	New(3, 2)
}

// Property: a cache never holds two lines with the same key, and never
// more valid lines than ways per set.
func TestCacheInvariants(t *testing.T) {
	f := func(keys []uint8) bool {
		c := New(4, 2)
		for _, k := range keys {
			key := uint64(k % 32)
			if c.Lookup(key) == nil {
				v := c.Victim(key)
				c.Insert(v, key, Shared)
			}
		}
		seen := map[uint64]int{}
		perSet := map[int]int{}
		ok := true
		c.ForEach(func(setIdx int, l *Line) {
			seen[l.Key]++
			perSet[setIdx]++
			if int(l.Key)&3 != setIdx {
				ok = false // line stored in wrong set
			}
		})
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		for _, n := range perSet {
			if n > 2 {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
