// Package cache implements the on-chip memory hierarchy: a generic
// set-associative tag array (Cache) and the three-level inclusive MESI
// hierarchy (Hierarchy) connecting the cores' private L1/L2 caches
// through a crossbar to a banked shared L3 and the HMC chain behind it.
//
// The caches are timing-structural: real tag arrays, real LRU, real
// MSHRs, real writeback traffic — but no data arrays. Functional values
// are maintained by the workload layer; the hierarchy decides only *when*
// things happen and *how many bytes* move, which is what the paper's
// results depend on.
package cache

// State is a MESI-style line state. The shared L3 tracks sharers
// explicitly, so private lines only distinguish Invalid/Shared/Exclusive/
// Modified.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	default:
		return "M"
	}
}

// Line is one tag-array entry: 16 bytes, so four lines share a host
// cache line. Key is the full block key (equivalent to tag plus set
// index), kept whole so victims can be written back without
// reconstructing addresses. The MESI state, the dirty bit and the LRU
// stamp share one word; the L3's sharer masks live beside the array,
// in Cache.sharers, since private lines never set one.
type Line struct {
	Key  uint64
	meta uint64 // state<<stateShift | dirtyBit | LRU stamp
}

const (
	stateShift = 62
	dirtyBit   = 1 << 61
	// lruLimit bounds LRU stamps: they fill the word's low 61 bits.
	lruLimit = dirtyBit
	lruMask  = lruLimit - 1
	// validMin is the smallest meta word of a line that is not Invalid.
	validMin = uint64(Shared) << stateShift
)

// State reports the line's MESI state.
func (l *Line) State() State { return State(l.meta >> stateShift) }

// SetState changes the line's MESI state, keeping its dirty bit and
// LRU stamp.
func (l *Line) SetState(s State) {
	l.meta = l.meta&^(3<<stateShift) | uint64(s)<<stateShift
}

// Dirty reports whether the line holds data newer than the next level.
func (l *Line) Dirty() bool { return l.meta&dirtyBit != 0 }

// SetDirty sets or clears the dirty bit.
func (l *Line) SetDirty(d bool) {
	if d {
		l.meta |= dirtyBit
	} else {
		l.meta &^= dirtyBit
	}
}

func (l *Line) lru() uint64 { return l.meta & lruMask }

// Cache is a set-associative tag array with true-LRU replacement. Keys
// are block numbers (the caller applies any banking division first).
type Cache struct {
	sets, ways int
	lines      []Line
	// sharers holds each line's core bitmask (the L3's directory bits),
	// indexed like lines; nil in caches made by New.
	sharers []uint64
	clock   uint64

	// Hits and Misses count Lookup outcomes.
	Hits, Misses int64
}

// New creates a cache with the given geometry. sets must be a power of
// two.
func New(sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("cache: bad geometry")
	}
	return &Cache{sets: sets, ways: ways, lines: make([]Line, sets*ways)}
}

// NewShared creates a cache whose lines also carry a sharer mask, for
// the banked L3.
func NewShared(sets, ways int) *Cache {
	c := New(sets, ways)
	c.sharers = make([]uint64, len(c.lines))
	return c
}

// Sets and Ways report the geometry.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

// base returns the index of the first way of key's set.
func (c *Cache) base(key uint64) int { return (int(key) & (c.sets - 1)) * c.ways }

// find returns the index of key's valid line, or -1.
func (c *Cache) find(key uint64) int {
	b := c.base(key)
	set := c.lines[b : b+c.ways]
	for i := range set {
		if set[i].Key == key && set[i].meta >= validMin {
			return b + i
		}
	}
	return -1
}

// lookup is Lookup by index: it returns the index of key's line,
// promoted, or -1 on a miss.
func (c *Cache) lookup(key uint64) int {
	i := c.find(key)
	if i < 0 {
		c.Misses++
		return -1
	}
	c.clock++
	c.lines[i].meta = c.lines[i].meta&^lruMask | c.clock
	c.Hits++
	return i
}

// Lookup finds key and promotes it in LRU order on a hit. It returns the
// line for in-place state updates, or nil on miss.
func (c *Cache) Lookup(key uint64) *Line {
	if i := c.lookup(key); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Peek finds key without touching LRU or hit/miss counters.
func (c *Cache) Peek(key uint64) *Line {
	if i := c.find(key); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Line returns the line at index i, as Victim reports it.
func (c *Cache) Line(i int) *Line { return &c.lines[i] }

// Victim returns the index of the line that Insert would replace for
// key: an invalid way if present, else the LRU way. The line still
// holds the victim's metadata; the caller handles any writeback, then
// calls Insert.
func (c *Cache) Victim(key uint64) int {
	b := c.base(key)
	set := c.lines[b : b+c.ways]
	best := 0
	for i := range set {
		if set[i].meta < validMin {
			return b + i
		}
		if set[i].lru() < set[best].lru() {
			best = i
		}
	}
	return b + best
}

// Insert installs key into line i (obtained from Victim) with the
// supplied state, resetting dirty/sharers and promoting it.
func (c *Cache) Insert(i int, key uint64, st State) {
	c.clock++
	c.lines[i] = Line{Key: key, meta: uint64(st)<<stateShift | c.clock}
	if c.sharers != nil {
		c.sharers[i] = 0
	}
}

// invalidate removes key if present, returning the line's prior
// contents, its sharer mask, and whether it was present.
func (c *Cache) invalidate(key uint64) (Line, uint64, bool) {
	i := c.find(key)
	if i < 0 {
		return Line{}, 0, false
	}
	old := c.lines[i]
	c.lines[i] = Line{}
	var sharers uint64
	if c.sharers != nil {
		sharers = c.sharers[i]
		c.sharers[i] = 0
	}
	return old, sharers, true
}

// Invalidate removes key if present, returning the line's prior contents
// and whether it was present.
func (c *Cache) Invalidate(key uint64) (Line, bool) {
	old, _, ok := c.invalidate(key)
	return old, ok
}

// ForEach visits every valid line (for invariant checks in tests).
func (c *Cache) ForEach(fn func(setIdx int, l *Line)) {
	for i := range c.lines {
		if c.lines[i].meta >= validMin {
			fn(i/c.ways, &c.lines[i])
		}
	}
}
