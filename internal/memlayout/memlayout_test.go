package memlayout

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	s := NewStore()
	a := s.Alloc(10, 64)
	if a%64 != 0 {
		t.Fatalf("address %#x not 64-aligned", a)
	}
	b := s.Alloc(8, 8)
	if b < a+10 {
		t.Fatalf("overlapping allocations: %#x after [%#x,+10)", b, a)
	}
	if a < Base {
		t.Fatalf("allocation below base: %#x", a)
	}
}

func TestAllocBadAlignPanics(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Alloc(8, 3)
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewStore()
	a := s.Alloc(64, 64)
	s.WriteU64(a, 0xdeadbeefcafef00d)
	if got := s.ReadU64(a); got != 0xdeadbeefcafef00d {
		t.Fatalf("ReadU64 = %#x", got)
	}
	s.WriteF64(a+8, 3.25)
	if got := s.ReadF64(a + 8); got != 3.25 {
		t.Fatalf("ReadF64 = %v", got)
	}
	s.WriteU32(a+16, 77)
	if got := s.ReadU32(a + 16); got != 77 {
		t.Fatalf("ReadU32 = %d", got)
	}
	s.WriteF32(a+20, -1.5)
	if got := s.ReadF32(a + 20); got != -1.5 {
		t.Fatalf("ReadF32 = %v", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := NewStore()
	a := s.Alloc(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ReadU64(a + 8)
}

// TestAccessAcrossSegments checks that an access spanning two segments
// behaves as in one flat image: here the second allocation starts a new
// segment right after the first's four bytes.
func TestAccessAcrossSegments(t *testing.T) {
	s := NewStore()
	a := s.Alloc(4, 4)
	s.Alloc(1<<16, 8)
	if s.segAt(a) == s.segAt(a+7) {
		t.Fatal("the two allocations share a segment; the test needs them apart")
	}
	s.WriteU64(a, 0x0807060504030201)
	if got := s.ReadU64(a); got != 0x0807060504030201 {
		t.Fatalf("ReadU64 across segments = %#x", got)
	}
	if got := s.ReadU32(a + 2); got != 0x06050403 {
		t.Fatalf("ReadU32 across segments = %#x", got)
	}
	m := s.MapU32([]int32{0x0d0c0b0a}, 4)
	s.WriteU32(m-4, 0x44332211)
	if got := s.ReadU64(m - 4); got != 0x0d0c0b0a44332211 {
		t.Fatalf("ReadU64 across a mapping's start = %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a write reaching into a mapping did not panic")
		}
	}()
	s.WriteU64(m-4, 0)
}

func TestStoreGrows(t *testing.T) {
	s := NewStore()
	a := s.Alloc(10<<20, 64) // larger than any small-allocation segment
	s.WriteU64(a+(10<<20)-8, 42)
	if got := s.ReadU64(a + (10 << 20) - 8); got != 42 {
		t.Fatalf("value after growth = %d", got)
	}
}

func TestU64Array(t *testing.T) {
	s := NewStore()
	arr := s.AllocU64Array(100)
	if arr.Len() != 100 {
		t.Fatalf("Len = %d", arr.Len())
	}
	arr.Fill(7)
	for i := 0; i < 100; i++ {
		if arr.Get(i) != 7 {
			t.Fatalf("element %d = %d after Fill", i, arr.Get(i))
		}
	}
	arr.Set(50, 123)
	if arr.Get(50) != 123 || arr.Get(49) != 7 || arr.Get(51) != 7 {
		t.Fatal("Set leaked to neighbors")
	}
	if arr.Addr(1)-arr.Addr(0) != 8 {
		t.Fatal("element stride wrong")
	}
	arr.SetF(2, 2.5)
	if arr.GetF(2) != 2.5 {
		t.Fatal("float accessors broken")
	}
}

// Property: sequential allocations never overlap and preserve values.
func TestAllocNoOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := NewStore()
		type region struct {
			a uint64
			n int
		}
		var regs []region
		for i, sz := range sizes {
			n := int(sz)%128 + 8
			a := s.Alloc(n, 8)
			s.WriteU64(a, uint64(i))
			regs = append(regs, region{a, n})
		}
		for i, r := range regs {
			if s.ReadU64(r.a) != uint64(i) {
				return false
			}
			if i > 0 {
				prev := regs[i-1]
				if r.a < prev.a+uint64(prev.n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
