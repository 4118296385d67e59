// Package memlayout provides the simulated physical memory: a bump
// allocator handing out addresses in the simulated address space and a
// store holding functional data. The timing simulator never reads this
// store — it works on addresses alone — but PEI operations and workload
// verification execute against it, so coherence and atomicity bugs
// surface as wrong values, not just wrong cycle counts.
//
// The store is a short list of segments tiling [Base, high-water mark):
// writable byte slices the allocator hands out, and read-only mappings
// of immutable host arrays (MapU32), such as a cached graph's edge
// targets, which are addressed but never copied. Nothing below Base is
// backed: accessing it panics.
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

// minChunk is the least capacity of a writable segment started for an
// allocation smaller than it. Such a segment also reserves room for as
// many bytes as all earlier small allocations took, so many small
// allocations live in a few segments. A larger allocation gets a
// segment of its own size.
const minChunk = 64 << 10

// segment backs [start, start+size) with either writable bytes (data,
// whose spare capacity the next allocation may take) or a read-only
// mapping of 32-bit little-endian words (words).
type segment struct {
	start uint64
	data  []byte
	words []int32
}

func (g *segment) end() uint64 {
	if g.words != nil {
		return g.start + 4*uint64(len(g.words))
	}
	return g.start + uint64(len(g.data))
}

// byteAt returns the byte at offset off into the segment.
func (g *segment) byteAt(off uint64) byte {
	if g.words != nil {
		return byte(uint32(g.words[off/4]) >> (8 * (off % 4)))
	}
	return g.data[off]
}

// Store is the functional memory image plus allocator.
type Store struct {
	segs  []segment // sorted by start, contiguous from Base to next
	next  uint64
	small int //peilint:allow snapcomplete bytes taken so far by allocations smaller than minChunk: layout, which a restore target rebuilds before Snap decodes
	// cur and curBase cache the writable segment the last access hit,
	// checked before any search: an n-byte access at curBase+off lies
	// in it when off < limN = len(cur)-(n-1).
	cur     []byte //peilint:allow snapcomplete lookup cache over segs, not state
	curBase uint64 //peilint:allow snapcomplete lookup cache over segs, not state
	lim8    uint64 //peilint:allow snapcomplete lookup cache over segs, not state
	lim4    uint64 //peilint:allow snapcomplete lookup cache over segs, not state
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{next: Base}
}

// Alloc reserves n zeroed, writable bytes aligned to align (a power of
// two) and returns the base address. It extends the last segment when
// that segment is writable and has the capacity, and otherwise starts a
// new one; existing bytes are never copied.
func (s *Store) Alloc(n int, align uint64) uint64 {
	if n < 0 {
		panic("memlayout: negative allocation")
	}
	a := s.align(align)
	s.extend(a + uint64(n))
	return a
}

// MapU32 places words, read-only, at the next address aligned to align
// and returns that address. ReadU32 at a+4i returns uint32(words[i]);
// writes to the range panic. The store keeps words, so the caller must
// never modify them.
func (s *Store) MapU32(words []int32, align uint64) uint64 {
	if len(words) == 0 {
		panic("memlayout: empty mapping")
	}
	a := s.align(align)
	s.extend(a) // the alignment padding stays writable, as Alloc's does
	s.segs = append(s.segs, segment{start: a, words: words})
	s.next = a + 4*uint64(len(words))
	return a
}

func (s *Store) align(align uint64) uint64 {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("memlayout: alignment %d not a power of two", align))
	}
	return (s.next + align - 1) &^ (align - 1)
}

// extend backs [s.next, end) with writable bytes and moves the
// high-water mark to end.
func (s *Store) extend(end uint64) {
	if end == s.next {
		return
	}
	need := int(end - s.next)
	if k := len(s.segs) - 1; k >= 0 && s.segs[k].words == nil && need <= cap(s.segs[k].data)-len(s.segs[k].data) {
		g := &s.segs[k]
		g.data = g.data[:len(g.data)+need]
	} else {
		c := need
		if need < minChunk {
			c = max(minChunk, s.small)
		}
		s.segs = append(s.segs, segment{start: s.next, data: make([]byte, need, c)})
	}
	if need < minChunk {
		s.small += need
	}
	s.next = end
	s.setCur(&s.segs[len(s.segs)-1])
}

// setCur makes writable segment g the last-hit one.
func (s *Store) setCur(g *segment) {
	s.cur, s.curBase = g.data, g.start
	n := uint64(len(g.data))
	s.lim8, s.lim4 = max(n, 7)-7, max(n, 3)-3
}

// segAt returns the segment holding address a, or nil if a lies outside
// [Base, high-water mark).
func (s *Store) segAt(a uint64) *segment {
	lo, hi := 0, len(s.segs)
	for lo < hi { // first segment starting above a
		mid := int(uint(lo+hi) >> 1)
		if s.segs[mid].start <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && a < s.segs[lo-1].end() {
		return &s.segs[lo-1]
	}
	return nil
}

// span returns a writable view of [a, a+n) if the range lies in one
// writable segment, making that segment the last-hit one, and nil
// otherwise.
func (s *Store) span(a, n uint64) []byte {
	g := s.segAt(a)
	if g == nil || g.words != nil || a+n > g.end() {
		return nil
	}
	s.setCur(g)
	return g.data[a-g.start : a-g.start+n]
}

// byteSegs returns the segment holding each byte of [a, a+n), n <= 8,
// panicking if any byte lies outside [Base, high-water mark). A range
// may span adjacent segments, as it may in a flat image.
func (s *Store) byteSegs(a, n uint64) (gs [8]*segment) {
	for k := range n {
		if gs[k] = s.segAt(a + k); gs[k] == nil {
			panic(fmt.Sprintf("memlayout: access [%#x,%#x) outside [%#x,%#x)", a, a+n, uint64(Base), s.next))
		}
	}
	return gs
}

// read returns the n-byte little-endian value at a, for a range outside
// the last-hit segment.
func (s *Store) read(a, n uint64) uint64 {
	var v uint64
	if b := s.span(a, n); b != nil {
		for k := n; k > 0; k-- {
			v = v<<8 | uint64(b[k-1])
		}
		return v
	}
	gs := s.byteSegs(a, n)
	for k := n; k > 0; k-- {
		v = v<<8 | uint64(gs[k-1].byteAt(a+k-1-gs[k-1].start))
	}
	return v
}

// write stores the n-byte little-endian value v at a, for a range
// outside the last-hit segment. It panics, writing nothing, if any
// byte is read-only or outside [Base, high-water mark).
func (s *Store) write(a, n, v uint64) {
	b := s.span(a, n)
	if b == nil {
		gs := s.byteSegs(a, n)
		for k := range n {
			if gs[k].words != nil {
				panic(fmt.Sprintf("memlayout: write to read-only mapping at [%#x,%#x)", a, a+n))
			}
		}
		for k := range n {
			gs[k].data[a+k-gs[k].start] = byte(v >> (8 * k))
		}
		return
	}
	for k := range n {
		b[k] = byte(v >> (8 * k))
	}
}

// ReadU64 and WriteU64 access an 8-byte little-endian word.
func (s *Store) ReadU64(a uint64) uint64 {
	if off := a - s.curBase; off < s.lim8 {
		return binary.LittleEndian.Uint64(s.cur[off:])
	}
	return s.read(a, 8)
}

func (s *Store) WriteU64(a uint64, v uint64) {
	if off := a - s.curBase; off < s.lim8 {
		binary.LittleEndian.PutUint64(s.cur[off:], v)
		return
	}
	s.write(a, 8, v)
}

// ReadU32 and WriteU32 access a 4-byte little-endian word.
func (s *Store) ReadU32(a uint64) uint32 {
	if off := a - s.curBase; off < s.lim4 {
		return binary.LittleEndian.Uint32(s.cur[off:])
	}
	return uint32(s.read(a, 4))
}

func (s *Store) WriteU32(a uint64, v uint32) {
	if off := a - s.curBase; off < s.lim4 {
		binary.LittleEndian.PutUint32(s.cur[off:], v)
		return
	}
	s.write(a, 4, uint64(v))
}

// ReadF64 and WriteF64 access an 8-byte IEEE-754 double.
func (s *Store) ReadF64(a uint64) float64     { return math.Float64frombits(s.ReadU64(a)) }
func (s *Store) WriteF64(a uint64, v float64) { s.WriteU64(a, math.Float64bits(v)) }
func (s *Store) ReadF32(a uint64) float32     { return math.Float32frombits(s.ReadU32(a)) }
func (s *Store) WriteF32(a uint64, v float32) { s.WriteU32(a, math.Float32bits(v)) }

// U64Array is a convenience wrapper for an allocated array of 8-byte
// elements, the layout every graph workload uses for per-vertex fields.
// It keeps a view of its own bytes, which never move, so Get and Set
// skip the segment lookup.
type U64Array struct {
	b    []byte
	base uint64
	n    int
}

// AllocU64Array allocates n 8-byte elements aligned to their own size.
func (s *Store) AllocU64Array(n int) U64Array {
	a := s.Alloc(n*8, 8)
	if n == 0 {
		return U64Array{base: a}
	}
	g := &s.segs[len(s.segs)-1] // Alloc placed [a, a+8n) in the last segment
	off := a - g.start
	return U64Array{b: g.data[off : off+uint64(n*8) : off+uint64(n*8)], base: a, n: n}
}

// Addr returns the address of element i (usable as a PEI target).
func (a U64Array) Addr(i int) uint64 { return a.base + uint64(i)*8 }

// Len returns the element count.
func (a U64Array) Len() int { return a.n }

// Get and Set access element i functionally.
func (a U64Array) Get(i int) uint64      { return binary.LittleEndian.Uint64(a.b[8*i:]) }
func (a U64Array) Set(i int, v uint64)   { binary.LittleEndian.PutUint64(a.b[8*i:], v) }
func (a U64Array) GetF(i int) float64    { return math.Float64frombits(a.Get(i)) }
func (a U64Array) SetF(i int, v float64) { a.Set(i, math.Float64bits(v)) }

// Fill sets every element to v.
func (a U64Array) Fill(v uint64) {
	for i := 0; i < a.n; i++ {
		a.Set(i, v)
	}
}
