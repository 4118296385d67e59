package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// buildCSR runs the builder on the edges (src[i], dst[i]) with w
// producers and workers, whatever their count.
func buildCSR(n int, src, dst []int32, w int) *Graph {
	b := newCSRBuilder(n, len(src), 1, w, make([]int32, len(src)))
	b.src, b.dst = src, dst
	parallel(w, b, csrBuilder.putEdges)
	return b.finish()
}

// TestCSRBuilderMatchesSort checks the bucket builder against the sort
// reference in each of its bucket regimes: up to 8 levels, where a
// bucket can be one vertex; 9 to 20 levels, with 256 buckets from 2^19
// edges and fewer below; and 21 to 24 levels, with 2^(2*levels-32)
// buckets however few the edges (ten thousand among millions of
// vertices). Each list also runs with a hub that sends most edges, so
// that one bucket exceeds a radix sort's group and one vertex its own,
// and at 1 to 4 producers and GOMAXPROCS 1 to 4.
func TestCSRBuilderMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	type graphCase struct {
		name     string
		n        int
		src, dst []int32
	}
	random := func(n, m int) ([]int32, []int32) {
		src, dst := make([]int32, m), make([]int32, m)
		for i := range src {
			src[i], dst[i] = int32(r.Intn(n)), int32(r.Intn(n))
		}
		return src, dst
	}
	var cases []graphCase
	add := func(n, m int) {
		src, dst := random(n, m)
		cases = append(cases, graphCase{fmt.Sprintf("n=%d,m=%d", n, m), n, src, dst})
		// The hub: vertex n/3 sends 7 of every 8 edges.
		hub := slices.Clone(src)
		for i := range hub {
			if i%8 != 0 {
				hub[i] = int32(n / 3)
			}
		}
		cases = append(cases, graphCase{fmt.Sprintf("n=%d,m=%d,hub", n, m), n, hub, dst})
	}
	for _, n := range []int{1, 2, 3, 200, 256} { // up to 8 levels
		add(n, 0)
		add(n, 5000)
	}
	for _, n := range []int{257, 1000, 5003, 1 << 15, 300_007, 1<<20 - 5} { // 9 to 20 levels
		add(n, 12_000)
	}
	add(300, 1<<19) // 256 buckets of two vertices
	add(1<<20-5, 1<<19)
	add(1000, 3*groupKeys)       // a hub larger than a group
	add(300_007, 4*groupKeys+11) // buckets of assorted sizes
	// One bucket of 128 vertices holds every edge: several groups.
	src, dst := random(128, 4*groupKeys)
	cases = append(cases, graphCase{"one bucket", 1 << 15, src, dst})
	for _, levels := range []int{21, 22, 23, 24} {
		add(1<<(levels-1)+levels, 10_000)
	}
	for _, c := range cases {
		want := csrBySort(c.n, c.src, c.dst)
		for w := 1; w <= 4; w++ {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
				g := buildCSR(c.n, c.src, c.dst, w)
				if !slices.Equal(g.Offsets, want.Offsets) || !slices.Equal(g.Edges, want.Edges) {
					t.Errorf("%s, %d workers: graph differs from the sort reference", c.name, w)
				}
			}()
		}
	}
}

// TestSymmetrizeMatchesSort checks Symmetrize against the sort reference
// over every edge and its reverse, at several vertex counts, with
// enough edges at the largest for more than one producer.
func TestSymmetrizeMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, c := range []struct{ n, m int }{{1, 5}, {7, 40}, {1000, 20_000}, {70_001, 3 * csrGrain}} {
		src, dst := make([]int32, c.m), make([]int32, c.m)
		for i := range src {
			src[i], dst[i] = int32(r.Intn(c.n)), int32(r.Intn(c.n))
		}
		want := csrBySort(c.n, append(slices.Clone(src), dst...), append(slices.Clone(dst), src...))
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				g, err := FromEdgeList(c.n, src, slices.Clone(dst))
				if err != nil {
					t.Fatal(err)
				}
				s := g.Symmetrize()
				if !slices.Equal(s.Offsets, want.Offsets) || !slices.Equal(s.Edges, want.Edges) {
					t.Errorf("n=%d, m=%d, GOMAXPROCS=%d: Symmetrize differs from the sort reference", c.n, c.m, procs)
				}
			}()
		}
	}
}

// TestRMATRefusesBeforeAllocating checks that RMAT panics on parameters
// it cannot build, more edges than int32 offsets hold among them, and
// does so before it allocates anything.
func TestRMATRefusesBeforeAllocating(t *testing.T) {
	var tooMany int64 = math.MaxInt32 + 1
	for _, c := range []struct{ n, edges int }{{16, int(tooMany)}, {0, 8}, {16, -1}} {
		panicked := false
		allocs := testing.AllocsPerRun(1, func() {
			defer func() { panicked = recover() != nil }()
			RMAT(c.n, c.edges, 1)
		})
		if !panicked || allocs != 0 {
			t.Errorf("RMAT(%d, %d): panicked %v after %.0f allocations; want a panic before any", c.n, c.edges, panicked, allocs)
		}
	}
}

// TestGraphBuildFootprint holds the build of the full machine's graph,
// at four workers, to 40 MiB allocated: its keys and Edges (8 bytes per
// edge), Offsets and the workers' buffers. The two-scatter build it
// replaced allocated 55.5 MiB.
func TestGraphBuildFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	spec := fullMachineSpec()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := spec.Generate()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	if got := after.TotalAlloc - before.TotalAlloc; got > 40<<20 {
		t.Fatalf("building %s allocated %.1f MiB, budget 40", spec.Name, float64(got)/(1<<20))
	}
}

// BenchmarkSymmetrize times the symmetrized form of the full machine's
// graph, which wcc runs on.
func BenchmarkSymmetrize(b *testing.B) {
	g := fullMachineSpec().Generate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = g.Symmetrize()
	}
}
