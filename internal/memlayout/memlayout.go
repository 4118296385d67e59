// Package memlayout provides the simulated physical memory: a bump
// allocator handing out addresses in the simulated address space and a
// flat byte store holding functional data. The timing simulator never
// reads this store — it works on addresses alone — but PEI operations and
// workload verification execute against it, so coherence and atomicity
// bugs surface as wrong values, not just wrong cycle counts.
package memlayout

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Base is the first allocatable address. Address 0 is kept unmapped so
// zero-valued pointers in workload data structures (e.g. hash-bucket next
// pointers) are distinguishable.
const Base = 1 << 20

// Store is the functional memory image plus allocator.
type Store struct {
	mem  []byte
	next uint64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{mem: make([]byte, Base), next: Base}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns
// the base address.
func (s *Store) Alloc(n int, align uint64) uint64 {
	if n < 0 {
		panic("memlayout: negative allocation")
	}
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("memlayout: alignment %d not a power of two", align))
	}
	a := (s.next + align - 1) &^ (align - 1)
	s.next = a + uint64(n)
	if s.next > uint64(len(s.mem)) {
		grown := make([]byte, s.next*3/2)
		copy(grown, s.mem)
		s.mem = grown
	}
	return a
}

// Bytes returns a mutable view of [a, a+n). The range must have been
// allocated.
func (s *Store) Bytes(a uint64, n int) []byte {
	if a+uint64(n) > s.next {
		panic(fmt.Sprintf("memlayout: access [%#x,%#x) beyond allocation %#x", a, a+uint64(n), s.next))
	}
	return s.mem[a : a+uint64(n)]
}

// ReadU64 and WriteU64 access an 8-byte little-endian word.
func (s *Store) ReadU64(a uint64) uint64     { return binary.LittleEndian.Uint64(s.Bytes(a, 8)) }
func (s *Store) WriteU64(a uint64, v uint64) { binary.LittleEndian.PutUint64(s.Bytes(a, 8), v) }
func (s *Store) ReadU32(a uint64) uint32     { return binary.LittleEndian.Uint32(s.Bytes(a, 4)) }
func (s *Store) WriteU32(a uint64, v uint32) { binary.LittleEndian.PutUint32(s.Bytes(a, 4), v) }

// ReadF64 and WriteF64 access an 8-byte IEEE-754 double.
func (s *Store) ReadF64(a uint64) float64     { return math.Float64frombits(s.ReadU64(a)) }
func (s *Store) WriteF64(a uint64, v float64) { s.WriteU64(a, math.Float64bits(v)) }
func (s *Store) ReadF32(a uint64) float32     { return math.Float32frombits(s.ReadU32(a)) }
func (s *Store) WriteF32(a uint64, v float32) { s.WriteU32(a, math.Float32bits(v)) }

// U64Array is a convenience wrapper for an allocated array of 8-byte
// elements, the layout every graph workload uses for per-vertex fields.
type U64Array struct {
	s    *Store
	base uint64
	n    int
}

// AllocU64Array allocates n 8-byte elements aligned to their own size.
func (s *Store) AllocU64Array(n int) U64Array {
	return U64Array{s: s, base: s.Alloc(n*8, 8), n: n}
}

// Addr returns the address of element i (usable as a PEI target).
func (a U64Array) Addr(i int) uint64 { return a.base + uint64(i)*8 }

// Len returns the element count.
func (a U64Array) Len() int { return a.n }

// Get and Set access element i functionally.
func (a U64Array) Get(i int) uint64      { return a.s.ReadU64(a.Addr(i)) }
func (a U64Array) Set(i int, v uint64)   { a.s.WriteU64(a.Addr(i), v) }
func (a U64Array) GetF(i int) float64    { return a.s.ReadF64(a.Addr(i)) }
func (a U64Array) SetF(i int, v float64) { a.s.WriteF64(a.Addr(i), v) }

// Fill sets every element to v.
func (a U64Array) Fill(v uint64) {
	for i := 0; i < a.n; i++ {
		a.Set(i, v)
	}
}
