// Package graph provides the graph substrate the five graph-processing
// workloads run on: a compact CSR representation, an R-MAT power-law
// generator standing in for the paper's real-world social/web graphs
// (DESIGN.md §3), and named dataset recipes matching the nine graphs of
// Figures 2 and 8.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is a directed graph in CSR form.
type Graph struct {
	Name string
	// Offsets has NumVertices+1 entries; successors of v are
	// Edges[Offsets[v]:Offsets[v+1]]. A graph has at most MaxInt32 edges.
	Offsets []int32
	Edges   []int32
}

// NumVertices and NumEdges report the size.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }
func (g *Graph) NumEdges() int    { return len(g.Edges) }

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Successors returns v's successor slice (shared storage; do not
// modify).
func (g *Graph) Successors(v int) []int32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// FromEdgeList builds a CSR graph from (src, dst) pairs. Vertices are
// 0..n-1; edges keep duplicates (multi-edges occur in real crawls too)
// but are sorted per source for locality. The graph's Edges reuse dst's
// storage, so the caller must not use dst once it returns a graph.
func FromEdgeList(n int, src, dst []int32) (*Graph, error) {
	if n < 0 || n > math.MaxInt32+1 {
		return nil, fmt.Errorf("graph: vertex count %d outside [0, 2^31]", n)
	}
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch %d/%d", len(src), len(dst))
	}
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges exceed the limit of %d", len(src), math.MaxInt32)
	}
	for i, s := range src {
		if int(s) >= n || s < 0 || int(dst[i]) >= n || dst[i] < 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", s, dst[i], n)
		}
	}
	w := csrWorkers(len(src))
	b := newCSRBuilder(n, len(src), 1, w, dst)
	b.src, b.dst = src, dst
	parallel(w, b, csrBuilder.putEdges)
	return b.finish(), nil
}

// Symmetrize returns the undirected version of g (every edge plus its
// reverse), used by WCC where edge direction is ignored.
func (g *Graph) Symmetrize() *Graph {
	m := g.NumEdges()
	w := csrWorkers(2 * m)
	b := newCSRBuilder(g.NumVertices(), m, 2, w, make([]int32, 2*m))
	b.from = g
	parallel(w, b, csrBuilder.putBothWays)
	sym := b.finish()
	sym.Name = g.Name + "-sym"
	return sym
}

// csrWorkers is how many workers build the CSR of m edges.
func csrWorkers(m int) int { return min(runtime.GOMAXPROCS(0), max(1, m/csrGrain)) }

// csrGrain is the fewest edges per CSR worker: below it, starting a
// goroutine costs more than its share of the build saves.
const csrGrain = 1 << 16

// csrBuilder builds a CSR graph from edges that its w producers append,
// in any order, as packed 32-bit keys (DESIGN.md §3). A source's high
// bits pick its bucket, a range of 2^low vertices; its key holds the
// source's low bits above the destination, so keys sort in CSR order.
// Each producer appends to its own list of chunks per bucket. Once all
// have, the workers claim buckets one at a time and sort each in cache,
// which writes the bucket's part of Edges and Offsets. A successor list
// is a sorted multiset, so the order the keys arrived in cannot show.
//
// The build holds the keys and Edges, 8 bytes per edge, Offsets, and
// each worker's sort scratch. Its phases take it by value, so a
// one-worker build, which runs them inline, keeps it on the stack.
type csrBuilder struct {
	n, w    int
	items   int  // what the producers share out: edges, or Symmetrize's input edges
	per     int  // keys each item adds
	levels  uint // bits of a destination: bits.Len(n-1)
	low     uint // bits of a source its key keeps
	shift   uint // log2 of the keys per chunk
	buckets int  // buckets that hold vertices, and lists per producer
	digits  uint // the radix sort's passes over a destination: 1, or 3 above 11 levels
	width   uint // bits of a destination each pass takes

	// One scratch allocation, carved up:
	keys   []uint32 // the chunks
	next   []uint32 // next[c] is the chunk after c in its list
	heads  []uint32 // heads[p*buckets+k] is producer p's first chunk of bucket k
	ends   []uint32 // ends[p*buckets+k] is one past its last key, 0 while the list is empty
	firsts []uint32 // firsts[p] is producer p's first chunk; firsts[w] ends the keys
	starts []uint32 // starts[k] is where bucket k starts in Edges
	sorts  []uint32 // each worker's sort scratch: group keys, then digit counters
	// claimed is one word, the buckets the workers have claimed, which
	// they add to atomically. It is a word of the scratch rather than an
	// atomic.Uint32 of its own, which would cost RMAT an allocation.
	claimed []uint32

	offsets []int32
	edges   []int32

	src, dst []int32 // FromEdgeList's edges
	from     *Graph  // Symmetrize's input
}

// newCSRBuilder allocates the build of the CSR graph on n vertices
// whose w producers share out items, each adding per keys. Its Edges
// take edges' storage, which must hold items*per entries.
//
// The bucket bits b = max(min(8, levels, bits.Len(m/2^12)), 2*levels-32):
// at least 2*levels-32, so that a key, levels-b source bits and levels
// destination bits, fits in 32, and otherwise 256 buckets, or fewer
// for a graph too small to put 2^12 keys in each. A list's last chunk
// may be part empty, and each producer's chunks are set aside for the
// worst case: one part-empty chunk per list it can fill. The chunk size
// is the largest power of two that keeps that slack to m/32 keys.
func newCSRBuilder(n, items, per, w int, edges []int32) csrBuilder {
	levels := uint(bits.Len(uint(max(n, 1) - 1)))
	m := items * per
	bb := min(8, levels, uint(bits.Len(uint(m>>bucketKeys))))
	if 2*levels > 32+bb {
		bb = 2*levels - 32
	}
	b := csrBuilder{
		n: n, w: w, items: items, per: per,
		levels: levels, low: levels - bb,
		buckets: (n-1)>>(levels-bb) + 1, // none when n = 0
		offsets: make([]int32, n+1),
		edges:   edges,
	}
	lists := 0 // lists the producers can fill
	for p := range w {
		lists += min(b.buckets, b.share(p))
	}
	for lists > 0 && (2<<b.shift-1)*lists <= m/32 {
		b.shift++
	}
	chunks := 0
	for p := range w {
		chunks += b.region(p)
	}
	b.digits, b.width = 1, levels
	if levels > 11 {
		b.digits, b.width = 3, (levels+2)/3
	}
	nl := w * b.buckets
	sorts := w * (min(groupKeys, m) + int(b.digits<<b.width))
	scratch := make([]uint32, chunks<<b.shift+chunks+2*nl+w+1+b.buckets+1+1+sorts)
	b.keys, scratch = scratch[:chunks<<b.shift], scratch[chunks<<b.shift:]
	b.next, scratch = scratch[:chunks], scratch[chunks:]
	b.heads, scratch = scratch[:nl], scratch[nl:]
	b.ends, scratch = scratch[:nl], scratch[nl:]
	b.firsts, scratch = scratch[:w+1], scratch[w+1:]
	b.starts, scratch = scratch[:b.buckets+1], scratch[b.buckets+1:]
	b.claimed, b.sorts = scratch[:1], scratch[1:]
	for p := range w {
		b.firsts[p+1] = b.firsts[p] + uint32(b.region(p))
	}
	return b
}

// region is how many chunks producer p may fill: its keys, plus a
// part-empty last chunk in each list it can start.
func (b csrBuilder) region(p int) int {
	keys := b.share(p)
	return (keys + min(b.buckets, keys)*(1<<b.shift-1)) >> b.shift
}

// part is producer i's share [lo, hi) of the items.
func (b csrBuilder) part(i int) (lo, hi int) { return i * b.items / b.w, (i + 1) * b.items / b.w }

// share is how many keys producer i adds.
func (b csrBuilder) share(i int) int {
	lo, hi := b.part(i)
	return (hi - lo) * b.per
}

// putEdges appends part i of FromEdgeList's edges.
func (b csrBuilder) putEdges(i int) {
	lo, hi := b.part(i)
	kw := b.writer(i)
	kw.putAll(b.src[lo:hi], b.dst[lo:hi])
}

// putBothWays appends part i of Symmetrize's input edges, each edge and
// its reverse.
func (b csrBuilder) putBothWays(i int) {
	lo, hi := b.part(i)
	g := b.from
	v := int32(sort.Search(g.NumVertices(), func(v int) bool { return int(g.Offsets[v+1]) > lo }))
	kw := b.writer(i)
	var same [256]int32 // v, as often as a run of its edges needs
	for e := lo; e < hi; v++ {
		end := min(int(g.Offsets[v+1]), hi)
		for e < end {
			succ := g.Edges[e:min(end, e+len(same))]
			vs := same[:len(succ)]
			for j := range vs {
				vs[j] = v
			}
			kw.putAll(vs, succ)
			kw.putAll(succ, vs)
			e += len(succ)
		}
	}
}

// keyWriter appends producer p's keys to its bucket lists.
type keyWriter struct {
	keys, next  []uint32
	heads, ends []uint32 // p's lists
	free        uint32   // p's next unused chunk
	levels, low uint
	shift       uint
}

// writer returns producer p's keyWriter, its lists emptied.
func (b csrBuilder) writer(p int) keyWriter {
	heads := b.heads[p*b.buckets : (p+1)*b.buckets]
	ends := b.ends[p*b.buckets : (p+1)*b.buckets]
	clear(ends)
	return keyWriter{
		keys: b.keys, next: b.next, heads: heads, ends: ends, free: b.firsts[p],
		levels: b.levels, low: b.low, shift: b.shift,
	}
}

// putAll appends the edges (src[i], dst[i]). It keeps the writer's
// fields in locals, which R-MAT's shares need to keep up.
func (kw *keyWriter) putAll(src, dst []int32) {
	keys, ends := kw.keys, kw.ends
	low, levels, chunk := kw.low, kw.levels, uint32(1)<<kw.shift-1
	dst = dst[:len(src)]
	for i, s := range src {
		k := uint32(s) >> low
		at := ends[k]
		if at&chunk == 0 {
			at = kw.newChunk(k, at)
		}
		keys[at] = (uint32(s)&(1<<low-1))<<levels | uint32(dst[i])
		ends[k] = at + 1
	}
}

// newChunk links a fresh chunk to the end of bucket k's list, which ends
// at at, and returns its first position.
func (kw *keyWriter) newChunk(k, at uint32) uint32 {
	c := kw.free
	kw.free++
	if at == 0 {
		kw.heads[k] = c
	} else {
		kw.next[(at-1)>>kw.shift] = c
	}
	return c << kw.shift
}

// chunks calls f on each chunk of bucket k's keys.
func (b *csrBuilder) chunks(k int, f func(keys []uint32)) {
	for l := k; l < len(b.ends); l += b.buckets {
		end := b.ends[l]
		if end == 0 {
			continue
		}
		last := (end - 1) >> b.shift
		for c := b.heads[l]; c != last; c = b.next[c] {
			f(b.keys[c<<b.shift : (c+1)<<b.shift])
		}
		f(b.keys[last<<b.shift : end])
	}
}

// finish builds the graph once the producers are done: it sets where
// each bucket starts in Edges, and the workers sort the buckets.
func (b csrBuilder) finish() *Graph {
	run := 0
	for k := range b.buckets {
		b.starts[k] = uint32(run)
		b.chunks(k, func(keys []uint32) { run += len(keys) })
	}
	b.starts[b.buckets] = uint32(run)
	b.offsets[b.n] = int32(run)
	parallel(b.w, b, csrBuilder.sortBuckets)
	return &Graph{Offsets: b.offsets, Edges: b.edges}
}

// sortBuckets is worker i: it claims buckets and sorts each into its
// part of the CSR.
func (b csrBuilder) sortBuckets(i int) {
	per := len(b.sorts) / b.w
	own := b.sorts[i*per : (i+1)*per]
	tmp, cnt := own[:per-int(b.digits<<b.width)], own[per-int(b.digits<<b.width):]
	for {
		k := int(atomic.AddUint32(&b.claimed[0], 1)) - 1
		if k >= b.buckets {
			return
		}
		b.sortBucket(k, tmp, cnt)
	}
}

// sortBucket writes bucket k's successor lists and their Offsets: only
// it touches that part of Edges and Offsets[v0:v1]. A bucket of at most
// len(tmp) keys is gathered into Edges and sorted as one group. A
// larger one is scattered by source, each vertex's keys to their final
// place, and its vertices are sorted in groups of at most len(tmp) keys
// (or one longer list). tmp and cnt are sortGroup's scratch.
func (b *csrBuilder) sortBucket(k int, tmp, cnt []uint32) {
	v0 := k << b.low
	pos := b.offsets[v0:min(b.n, v0+1<<b.low)]
	lo, hi := int32(b.starts[k]), int32(b.starts[k+1])
	clear(pos)
	levels := b.levels
	if int(hi-lo) <= len(tmp) {
		d := newDigits(cnt, b.digits, b.width)
		at := b.edges[lo:hi]
		b.chunks(k, func(keys []uint32) {
			for i, key := range keys {
				at[i] = int32(key)
				pos[key>>levels]++
				d.add(key)
			}
			at = at[len(keys):]
		})
		countsToStarts(pos, lo)
		b.sortGroup(pos, 0, len(pos), lo, hi, tmp, d)
		return
	}
	b.chunks(k, func(keys []uint32) {
		for _, key := range keys {
			pos[key>>levels]++
		}
	})
	countsToStarts(pos, lo)
	b.chunks(k, func(keys []uint32) {
		for _, key := range keys {
			s := key >> levels
			b.edges[pos[s]] = int32(key)
			pos[s]++
		}
	})
	group := func(first, last int, lo, hi int32) {
		d := newDigits(cnt, b.digits, b.width)
		for _, x := range b.edges[lo:hi] {
			d.add(uint32(x))
		}
		b.sortGroup(pos, first, last, lo, hi, tmp, d)
	}
	// Each pos[i] now ends vertex v0+i's list: set them back to the
	// starts, cutting the vertices into groups.
	first, from, start := 0, lo, lo
	for i, end := range pos {
		if int(end-from) > len(tmp) && i > first {
			group(first, i, from, start)
			first, from = i, start
		}
		pos[i] = start
		start = end
	}
	group(first, len(pos), from, hi)
}

// countsToStarts turns the counts in pos into where each run starts, the
// first at lo.
func countsToStarts(pos []int32, lo int32) {
	for i, c := range pos {
		pos[i] = lo
		lo += c
	}
}

// bucketKeys is log2 of the fewest keys a bucket holds on average, unless
// a key could not fit in 32 bits: with fewer, the chunk walks cost more
// than the sorts.
const bucketKeys = 12

// groupKeys is the most keys a radix sort takes at once: a group's keys
// and their copy, 256 KiB, stay in L2.
const groupKeys = 1 << 15

// smallGroup is the most keys sortGroup sorts by comparison: below it,
// clearing a radix sort's counters costs more than the sort.
const smallGroup = 64

// sortGroup sorts Edges[lo:hi], the keys of the bucket's vertices first
// to last-1, whose starts are in pos, and leaves each its destination.
// A group of at most len(tmp) keys is sorted by a radix sort: passes
// over the destination's digits, counted in d, low digit first (an odd
// number of them, so that they end in tmp),
// then a counting scatter by source to pos, which it then sets back. A
// larger one, a single vertex, or one too small for that to pay, is
// sorted by comparison.
func (b *csrBuilder) sortGroup(pos []int32, first, last int, lo, hi int32, tmp []uint32, d digits) {
	keys := b.edges[lo:hi]
	mask := int32(1)<<b.levels - 1
	if len(keys) <= smallGroup || len(keys) > len(tmp) {
		// Keys use all 32 bits: flip the top one so that int32 order
		// is their unsigned order. The mask clears it again.
		for i := range keys {
			keys[i] ^= math.MinInt32
		}
		slices.Sort(keys)
		for i := range keys {
			keys[i] &= mask
		}
		return
	}
	tmp = tmp[:len(keys)]
	for i := range d.n {
		c := d.row(i)
		run := uint32(0)
		for j, n := range c {
			c[j] = run
			run += n
		}
	}
	scatter(tmp, keys, 0, d.row(0))
	if d.n == 3 {
		scatter(keys, tmp, d.w, d.row(1))
		scatter(tmp, keys, 2*d.w, d.row(2))
	}
	levels := b.levels
	for _, x := range tmp {
		s := x >> levels
		keys[pos[s]-lo] = int32(x) & mask
		pos[s]++
	}
	for v := last - 1; v > first; v-- {
		pos[v] = pos[v-1]
	}
	pos[first] = lo
}

// digits is a radix sort's counts of its keys' n destination digits,
// w bits each: n rows of 2^w counters.
type digits struct {
	c    []uint32
	n, w uint
}

// newDigits returns n digits of width w, counting into cnt, which it
// clears.
func newDigits(cnt []uint32, n, w uint) digits {
	clear(cnt)
	return digits{c: cnt[:n<<w], n: n, w: w}
}

// row returns digit i's counters.
func (d digits) row(i uint) []uint32 { return d.c[i<<d.w : (i+1)<<d.w] }

// add counts the key u.
func (d digits) add(u uint32) {
	radix := uint32(1)<<d.w - 1
	d.c[u&radix]++
	if d.n == 3 {
		d.c[radix+1+u>>d.w&radix]++
		d.c[2*(radix+1)+u>>(2*d.w)&radix]++
	}
}

// scatter moves each x of from to to[c[digit]], stably, where digit is
// the bits of x from shift on that index c, and advances c[digit].
func scatter[T, F ~int32 | ~uint32](to []T, from []F, shift uint, c []uint32) {
	radix := uint32(len(c) - 1)
	for _, x := range from {
		d := uint32(x) >> shift & radix
		to[c[d]] = T(x)
		c[d]++
	}
}

// parallel runs f(b, 0), ..., f(b, w-1) and waits for them: on w
// goroutines when w > 1, inline otherwise.
func parallel(w int, b csrBuilder, f func(csrBuilder, int)) {
	if w == 1 {
		f(b, 0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := range w {
		go runPart(f, b, i, &wg)
	}
	wg.Wait()
}

// runPart is one of parallel's goroutines. It gets b as an argument,
// not through a closure, so that b never escapes and the inline path
// allocates nothing.
func runPart(f func(csrBuilder, int), b csrBuilder, i int, wg *sync.WaitGroup) {
	defer wg.Done()
	f(b, i)
}

// MaxDegreeVertex returns the vertex with the largest out-degree (used
// as a well-connected BFS/SSSP source).
func (g *Graph) MaxDegreeVertex() int {
	best, bestDeg := 0, -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}
