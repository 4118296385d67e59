// Package graph provides the graph substrate the five graph-processing
// workloads run on: a compact CSR representation, an R-MAT power-law
// generator standing in for the paper's real-world social/web graphs
// (DESIGN.md §3), and named dataset recipes matching the nine graphs of
// Figures 2 and 8.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Graph is a directed graph in CSR form.
type Graph struct {
	Name string
	// Offsets has NumVertices+1 entries; successors of v are
	// Edges[Offsets[v]:Offsets[v+1]].
	Offsets []int64
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
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
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
	return csr(n, src, dst), nil
}

// csr builds the CSR graph of the valid edges (src[i], dst[i]) with two
// stable counting scatters, by destination and then by source, so each
// successor list comes out ascending in O(n+m). Edges reuses dst's
// storage. Each scatter splits its input into contiguous parts, one per
// worker, and a worker's cursors start after every earlier part's, so
// the output does not depend on the worker count.
func csr(n int, src, dst []int32) *Graph {
	b := newCSRBuild(n, src, dst, csrWorkers(len(src)))
	parallel(b.w, b, csrBuild.countDst)
	return b.finish()
}

// csrWorkers is how many workers build the CSR of m edges.
func csrWorkers(m int) int { return min(runtime.GOMAXPROCS(0), max(1, m/csrGrain)) }

// newCSRBuild allocates the state of a w-worker csr build.
func newCSRBuild(n int, src, dst []int32, w int) csrBuild {
	m := len(src)
	// One scratch block: the sources in destination order, then w+1 rows
	// of n per-worker counters (m < 2^31, so int32 holds any position).
	scratch := make([]int32, m+(w+1)*n)
	return csrBuild{
		n: n, w: w, src: src, dst: dst,
		byDst:   scratch[:m],
		rows:    scratch[m:],
		offsets: make([]int64, n+1),
	}
}

// finish builds the graph once rows 1..w hold each part's destination
// counts (countDst). Pass 1 scatters by destination on those rows; the
// last row's cursors then end each destination's run: b.ends. Pass 2
// walks the destination runs in order on rows 0..w-1, which leaves
// b.ends alone, and scatters each source into dst's storage.
func (b csrBuild) finish() *Graph {
	b.cursors(1, nil)
	parallel(b.w, b, csrBuild.scatterDst)
	parallel(b.w, b, csrBuild.countSrc)
	b.cursors(0, b.offsets)
	parallel(b.w, b, csrBuild.scatterSrc)
	return &Graph{Offsets: b.offsets, Edges: b.dst}
}

// csrGrain is the fewest edges per csr worker: below it, starting a
// goroutine costs more than its share of the scatter saves.
const csrGrain = 1 << 16

// csrBuild is one csr call's state. Its phases take it by value, so a
// one-worker build, which runs them inline, keeps it on the stack.
type csrBuild struct {
	n, w     int
	src, dst []int32
	byDst    []int32
	rows     []int32
	offsets  []int64
}

// row returns counter row r.
func (b csrBuild) row(r int) []int32 { return b.rows[r*b.n : (r+1)*b.n] }

// ends is where each destination's run in byDst ends.
func (b csrBuild) ends() []int32 { return b.row(b.w) }

// part is worker i's share [lo, hi) of m items.
func (b csrBuild) part(i, m int) (lo, hi int) { return i * m / b.w, (i + 1) * m / b.w }

// countDst counts part i's destinations into row 1+i.
func (b csrBuild) countDst(i int) {
	lo, hi := b.part(i, len(b.dst))
	count(b.row(1+i), b.dst[lo:hi])
}

// count adds each vertex's occurrences in vs to cnt.
func count(cnt, vs []int32) {
	for _, v := range vs {
		cnt[v]++
	}
}

func (b csrBuild) scatterDst(i int) {
	cur := b.row(1 + i)
	lo, hi := b.part(i, len(b.dst))
	for j, v := range b.dst[lo:hi] {
		b.byDst[cur[v]] = b.src[lo+j]
		cur[v]++
	}
}

// dstShare returns worker i's share [lo, hi) of byDst and the
// destination of byDst[lo].
func (b csrBuild) dstShare(i int) (lo, hi int, v int32) {
	lo, hi = b.part(i, len(b.byDst))
	ends := b.ends()
	return lo, hi, int32(sort.Search(b.n, func(v int) bool { return int(ends[v]) > lo }))
}

func (b csrBuild) countSrc(i int) {
	cnt := b.row(i)
	clear(cnt)
	ends := b.ends()
	lo, hi, v := b.dstShare(i)
	for p := lo; p < hi; v++ {
		end := min(int(ends[v]), hi)
		for _, s := range b.byDst[p:end] {
			cnt[s]++
		}
		p = end
	}
}

func (b csrBuild) scatterSrc(i int) {
	cur := b.row(i)
	ends := b.ends()
	lo, hi, v := b.dstShare(i)
	for p := lo; p < hi; v++ {
		end := min(int(ends[v]), hi)
		for _, s := range b.byDst[p:end] {
			b.dst[cur[s]] = v
			cur[s]++
		}
		p = end
	}
}

// cursors turns the counts in rows first..first+w-1 into scatter
// cursors: worker i's cursor for vertex v starts after the items of
// every smaller vertex and of every earlier worker's v. If offsets is
// not nil it receives the run boundaries.
func (b csrBuild) cursors(first int, offsets []int64) {
	rows := b.rows[first*b.n : (first+b.w)*b.n]
	run := int32(0)
	for v := 0; v < b.n; v++ {
		if offsets != nil {
			offsets[v] = int64(run)
		}
		for r := v; r < len(rows); r += b.n {
			c := rows[r]
			rows[r] = run
			run += c
		}
	}
	if offsets != nil {
		offsets[b.n] = int64(run)
	}
}

// parallel runs f(b, 0), ..., f(b, w-1) and waits for them: on w
// goroutines when w > 1, inline otherwise.
func parallel(w int, b csrBuild, f func(csrBuild, int)) {
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
func runPart(f func(csrBuild, int), b csrBuild, i int, wg *sync.WaitGroup) {
	defer wg.Done()
	f(b, i)
}

// Symmetrize returns the undirected version of g (every edge plus its
// reverse), used by WCC where edge direction is ignored.
func (g *Graph) Symmetrize() *Graph {
	n := g.NumVertices()
	m := g.NumEdges()
	src := make([]int32, 0, 2*m)
	dst := make([]int32, 0, 2*m)
	for v := 0; v < n; v++ {
		for _, w := range g.Successors(v) {
			src = append(src, int32(v))
			dst = append(dst, w)
			src = append(src, w)
			dst = append(dst, int32(v))
		}
	}
	sym := csr(n, src, dst)
	sym.Name = g.Name + "-sym"
	return sym
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
