// Package graph provides the graph substrate the five graph-processing
// workloads run on: a compact CSR representation, an R-MAT power-law
// generator standing in for the paper's real-world social/web graphs
// (DESIGN.md §3), and named dataset recipes matching the nine graphs of
// Figures 2 and 8.
package graph

import (
	"fmt"
	"math/rand"
	"slices"
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
// but are sorted per source for locality.
func FromEdgeList(n int, src, dst []int32) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch %d/%d", len(src), len(dst))
	}
	g := &Graph{Offsets: make([]int64, n+1), Edges: make([]int32, len(src))}
	for i, s := range src {
		if int(s) >= n || s < 0 || int(dst[i]) >= n || dst[i] < 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", s, dst[i], n)
		}
		g.Offsets[s+1]++
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, g.Offsets[:n])
	for i, s := range src {
		g.Edges[cursor[s]] = dst[i]
		cursor[s]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(g.Edges[g.Offsets[v]:g.Offsets[v+1]])
	}
	return g, nil
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
	sym, err := FromEdgeList(n, src, dst)
	if err != nil {
		panic(err) // cannot happen: inputs came from a valid graph
	}
	sym.Name = g.Name + "-sym"
	return sym
}

// The Graph500 R-MAT quadrant probabilities; d = 1-a-b-c = 0.05.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// RMAT draws each quadrant from a 63-bit Int63 value x exactly as
// rand.Rand.Float64 would turn it into f = float64(x)/(1<<63) and compare
// f with a, a+b and a+b+c. Since f is monotone in x, each comparison
// f < p is the integer test x < threshold(p), so the generator skips the
// float conversion and the three-way branch yet stays bit-identical to
// the float formulation (DESIGN.md §3; pinned by TestRMATGolden).
var (
	rmatTA   = threshold(rmatA)
	rmatTAB  = threshold(rmatA + rmatB)
	rmatTABC = threshold(rmatA + rmatB + rmatC)
	// Float64 redraws when f rounds up to 1, i.e. when x >= rmatTOne.
	rmatTOne = threshold(1)
)

// below is Float64's comparison of the draw x against p.
func below(x uint64, p float64) bool { return float64(x)/(1<<63) < p }

// threshold returns the least x in [0, 1<<63] with !below(x, p), found
// by binary search on the float predicate itself: x < threshold(p) holds
// exactly when below(x, p) does.
func threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if below(mid, p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// atLeast is 1 if x >= t and 0 otherwise, without a branch. It needs
// 0 < t <= 1<<63 and x < 1<<63: t-1-x then wraps past 1<<63 exactly
// when x >= t.
func atLeast(x, t uint64) int { return int((t - 1 - x) >> 63) }

// RMAT generates a power-law graph with the Graph500 R-MAT parameters
// (a=0.57, b=0.19, c=0.19, d=0.05), the standard synthetic stand-in for
// social-network graphs. n is rounded up to a power of two internally
// for quadrant recursion, then vertices are taken modulo n so the
// requested count is exact. Deterministic for a given seed: each level
// of each edge consumes one rand.Rand.Float64 draw from
// rand.NewSource(seed), and the output is pinned bit for bit.
func RMAT(n, edges int, seed int64) *Graph {
	if n <= 0 || edges < 0 {
		panic("graph: bad RMAT parameters")
	}
	rng := rand.NewSource(seed)
	levels := 0
	for 1<<levels < n {
		levels++
	}
	src := make([]int32, edges)
	dst := make([]int32, edges)
	for i := range src {
		var s, d int
		for l := 0; l < levels; l++ {
			x := uint64(rng.Int63())
			for x >= rmatTOne {
				x = uint64(rng.Int63())
			}
			// Quadrants a, b, c, d set bits (s,d) = 00, 01, 10, 11.
			sb := atLeast(x, rmatTAB)
			s |= sb << l
			d |= (atLeast(x, rmatTA) ^ sb ^ atLeast(x, rmatTABC)) << l
		}
		src[i] = int32(s % n)
		dst[i] = int32(d % n)
	}
	g, err := FromEdgeList(n, src, dst)
	if err != nil {
		panic(err)
	}
	return g
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
