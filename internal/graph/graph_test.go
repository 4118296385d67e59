package graph

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestFromEdgeListBasic(t *testing.T) {
	g, err := FromEdgeList(4, []int32{0, 0, 1, 3}, []int32{1, 2, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("size %d/%d", g.NumVertices(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(2) != 0 {
		t.Fatalf("degrees wrong: %d, %d", g.OutDegree(0), g.OutDegree(2))
	}
	succ := g.Successors(0)
	if len(succ) != 2 || succ[0] != 1 || succ[1] != 2 {
		t.Fatalf("successors(0) = %v", succ)
	}
}

func TestFromEdgeListRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdgeList(2, []int32{0}, []int32{5}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := FromEdgeList(2, []int32{0, 1}, []int32{1}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestSymmetrizeDoublesEdges(t *testing.T) {
	g, _ := FromEdgeList(3, []int32{0, 1}, []int32{1, 2})
	s := g.Symmetrize()
	if s.NumEdges() != 4 {
		t.Fatalf("symmetrized edges = %d, want 4", s.NumEdges())
	}
	if s.OutDegree(1) != 2 {
		t.Fatalf("vertex 1 degree = %d, want 2", s.OutDegree(1))
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(1024, 8192, 42)
	b := RMAT(1024, 8192, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := RMAT(1024, 8192, 43)
	same := true
	for i := range a.Edges {
		if i < len(c.Edges) && a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(1000, 10000, 7)
	if g.NumVertices() != 1000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 10000 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Successors(v) {
			if w < 0 || int(w) >= 1000 {
				t.Fatalf("edge target %d out of range", w)
			}
		}
	}
}

// R-MAT graphs must be skewed: the top 1% of vertices should own far
// more than 1% of the edges (power-law degree property the paper's
// locality results rely on).
func TestRMATPowerLawSkew(t *testing.T) {
	g := RMAT(4096, 65536, 11)
	degs := make([]int, g.NumVertices())
	for v := range degs {
		degs[v] = g.OutDegree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	top := 0
	for _, d := range degs[:41] { // top 1%
		top += d
	}
	frac := float64(top) / float64(g.NumEdges())
	if frac < 0.10 {
		t.Fatalf("top 1%% of vertices hold only %.1f%% of edges; not power-law", 100*frac)
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g, _ := FromEdgeList(4, []int32{0, 1, 1, 1}, []int32{1, 0, 2, 3})
	if got := g.MaxDegreeVertex(); got != 1 {
		t.Fatalf("MaxDegreeVertex = %d, want 1", got)
	}
}

func TestDatasetSpecs(t *testing.T) {
	if len(Figure2Graphs) != 9 {
		t.Fatalf("Figure2Graphs has %d entries, want 9", len(Figure2Graphs))
	}
	for i := 1; i < len(Figure2Graphs); i++ {
		if Figure2Graphs[i].Vertices <= Figure2Graphs[i-1].Vertices {
			t.Fatal("Figure2Graphs not in ascending vertex order")
		}
	}
	s := Figure2Graphs[0].Scaled(16)
	if s.Vertices != Figure2Graphs[0].Vertices/16 {
		t.Fatalf("scaled vertices = %d", s.Vertices)
	}
	g := DatasetSpec{Name: "t", Vertices: 128, Edges: 512, Seed: 3}.Generate()
	if g.NumVertices() != 128 || g.NumEdges() != 512 {
		t.Fatal("Generate produced wrong shape")
	}
}

// Property: CSR construction conserves edges — sum of out-degrees equals
// the edge count, and offsets are monotone.
func TestCSRConservation(t *testing.T) {
	f := func(pairs []uint16) bool {
		n := 64
		var src, dst []int32
		for _, p := range pairs {
			src = append(src, int32(p%uint16(n)))
			dst = append(dst, int32((p/uint16(n))%uint16(n)))
		}
		g, err := FromEdgeList(n, src, dst)
		if err != nil {
			return false
		}
		total := 0
		for v := 0; v < n; v++ {
			if g.Offsets[v+1] < g.Offsets[v] {
				return false
			}
			total += g.OutDegree(v)
		}
		return total == len(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
