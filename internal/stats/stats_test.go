package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Inc("a")
	r.Add("a", 4)
	r.Add("b", -2)
	if got := r.Get("a"); got != 5 {
		t.Fatalf("a = %d, want 5", got)
	}
	if got := r.Get("b"); got != -2 {
		t.Fatalf("b = %d, want -2", got)
	}
	if got := r.Get("missing"); got != 0 {
		t.Fatalf("missing = %d, want 0", got)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Inc("zeta")
	r.Inc("alpha")
	r.Inc("mid")
	names := r.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestRegistrySnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	r.Add("x", 10)
	s := r.Snapshot()
	r.Add("x", 5)
	if s["x"] != 10 {
		t.Fatalf("snapshot mutated: %d", s["x"])
	}
}

func TestRegistryHandle(t *testing.T) {
	r := NewRegistry()
	h := r.Counter("hits")
	h.Inc()
	h.Add(4)
	if got := h.Get(); got != 5 {
		t.Fatalf("handle Get = %d, want 5", got)
	}
	if got := r.Get("hits"); got != 5 {
		t.Fatalf("string Get = %d, want 5", got)
	}
	if h.Name() != "hits" {
		t.Fatalf("Name = %q", h.Name())
	}
	// String-keyed and handle updates hit the same cell.
	r.Add("hits", 10)
	if h.Get() != 15 {
		t.Fatalf("after string Add, handle Get = %d, want 15", h.Get())
	}
	h.Set(3)
	if r.Get("hits") != 3 {
		t.Fatalf("after handle Set, string Get = %d, want 3", r.Get("hits"))
	}
}

// TestRegistryHandleSurvivesGrowth pins the reason Handle stores an
// index rather than a pointer: interning more counters grows the backing
// slice, and previously issued handles must keep working.
func TestRegistryHandleSurvivesGrowth(t *testing.T) {
	r := NewRegistry()
	h := r.Counter("first")
	for i := 0; i < 1000; i++ {
		r.Counter("c" + strings.Repeat("x", i%7) + string(rune('a'+i%26)))
		r.Inc("other" + string(rune('a'+i%26)))
	}
	h.Add(42)
	if got := r.Get("first"); got != 42 {
		t.Fatalf("handle stale after growth: Get = %d, want 42", got)
	}
}

// TestRegistryCounterIdempotent checks that re-resolving a name returns
// a handle to the same cell.
func TestRegistryCounterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	a.Inc()
	b.Inc()
	if a.Get() != 2 || b.Get() != 2 {
		t.Fatalf("handles diverged: %d vs %d", a.Get(), b.Get())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	h.Observe(5)
	h.Observe(10)
	h.Observe(11)
	h.Observe(5000)
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 0 || h.Overflow != 1 {
		t.Fatalf("buckets = %v overflow %d", h.Counts, h.Overflow)
	}
	if h.Max != 5000 || h.N != 4 {
		t.Fatalf("Max=%d N=%d", h.Max, h.N)
	}
}

// TestHistogramBucketEdges table-tests the binary-search bucket
// selection at every boundary: a sample equal to a bound lands in that
// bound's bucket (bucket i holds v <= Bounds[i]).
func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int // index into Counts, or -1 for overflow
	}{
		{-5, 0}, {0, 0}, {9, 0}, {10, 0},
		{11, 1}, {99, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, -1}, {1 << 40, -1},
	}
	for _, c := range cases {
		h := NewHistogram(10, 100, 1000)
		h.Observe(c.v)
		want := make([]int64, len(h.Counts))
		var wantOverflow int64
		if c.bucket >= 0 {
			want[c.bucket] = 1
		} else {
			wantOverflow = 1
		}
		for i := range h.Counts {
			if h.Counts[i] != want[i] {
				t.Fatalf("Observe(%d): Counts = %v, want %v", c.v, h.Counts, want)
			}
		}
		if h.Overflow != wantOverflow {
			t.Fatalf("Observe(%d): Overflow = %d, want %d", c.v, h.Overflow, wantOverflow)
		}
	}
}

// TestHistogramMaxAllNegative pins the fixed Max seeding: for a stream
// of all-negative samples, Max must be the (negative) maximum rather
// than a stale zero.
func TestHistogramMaxAllNegative(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Observe(-50)
	h.Observe(-3)
	h.Observe(-999)
	if h.Max != -3 {
		t.Fatalf("Max = %d, want -3", h.Max)
	}
	if h.Sum != -1052 || h.N != 3 {
		t.Fatalf("Sum=%d N=%d", h.Sum, h.N)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-increasing bounds")
		}
	}()
	NewHistogram(10, 10)
}

// Property: mean*N == sum of samples, and total bucket population == N.
func TestHistogramConservation(t *testing.T) {
	f := func(samples []int16) bool {
		h := NewHistogram(16, 256, 4096)
		var sum int64
		for _, s := range samples {
			v := int64(s)
			if v < 0 {
				v = -v
			}
			sum += v
			h.Observe(v)
		}
		var pop int64
		for _, c := range h.Counts {
			pop += c
		}
		pop += h.Overflow
		return pop == int64(len(samples)) && h.Sum == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
