package workloads

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"pimsim/internal/graph"
)

// These tests pin the golden reference implementations the workload
// verifiers compare against. If a golden model is wrong, every
// "verified" simulation result is wrong with it — so the goldens get
// their own invariants checked on independent graphs.

func goldenGraph() *graph.Graph {
	return graph.RMAT(512, 4096, 77)
}

func TestGoldenBFSInvariants(t *testing.T) {
	g := goldenGraph()
	src := g.MaxDegreeVertex()
	levels, rounds := goldenBFS(g, src)
	if levels[src] != 0 {
		t.Fatalf("source level %d", levels[src])
	}
	if rounds <= 0 {
		t.Fatal("no rounds")
	}
	// Triangle property of BFS levels: along any edge (v,w),
	// level(w) <= level(v)+1; and every finite level is witnessed by a
	// predecessor at level-1.
	witnessed := make([]bool, g.NumVertices())
	witnessed[src] = true
	for v := 0; v < g.NumVertices(); v++ {
		if levels[v] == infDist {
			continue
		}
		for _, w := range g.Successors(v) {
			if levels[w] > levels[v]+1 {
				t.Fatalf("edge (%d,%d): level %d -> %d violates BFS", v, w, levels[v], levels[w])
			}
			if levels[w] == levels[v]+1 {
				witnessed[w] = true
			}
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if levels[v] != infDist && levels[v] > 0 && !witnessed[v] {
			t.Fatalf("vertex %d at level %d has no predecessor at level %d", v, levels[v], levels[v]-1)
		}
	}
}

func TestGoldenSSSPInvariants(t *testing.T) {
	g := goldenGraph()
	src := g.MaxDegreeVertex()
	dist, rounds := goldenSSSP(g, src)
	if dist[src] != 0 || rounds <= 0 {
		t.Fatalf("src dist %d rounds %d", dist[src], rounds)
	}
	// Relaxed fixpoint: no edge can improve any distance.
	for v := 0; v < g.NumVertices(); v++ {
		if dist[v] == infDist {
			continue
		}
		for _, w := range g.Successors(v) {
			if dist[v]+edgeWeight(v, w) < dist[w] {
				t.Fatalf("edge (%d,%d) still relaxable: %d + %d < %d",
					v, w, dist[v], edgeWeight(v, w), dist[w])
			}
		}
	}
	// SSSP distances dominate BFS levels (weights >= 1).
	levels, _ := goldenBFS(g, src)
	for v := range dist {
		if (dist[v] == infDist) != (levels[v] == infDist) {
			t.Fatalf("vertex %d reachability disagrees between BFS and SSSP", v)
		}
		if dist[v] != infDist && dist[v] < levels[v] {
			t.Fatalf("vertex %d: weighted dist %d below hop count %d", v, dist[v], levels[v])
		}
	}
}

// fullScanSSSP is the reference for goldenSSSP: synchronous
// Bellman-Ford that relaxes every reached vertex each round from a copy
// of the distances at the start of the round.
func fullScanSSSP(g *graph.Graph, src int) ([]uint64, int) {
	dist := make([]uint64, g.NumVertices())
	for i := range dist {
		dist[i] = infDist
	}
	dist[src] = 0
	rounds := 0
	for {
		prev := append([]uint64(nil), dist...)
		changed := false
		for v := 0; v < g.NumVertices(); v++ {
			if prev[v] == infDist {
				continue
			}
			for _, succ := range g.Successors(v) {
				if nd := prev[v] + edgeWeight(v, succ); nd < dist[succ] {
					dist[succ] = nd
					changed = true
				}
			}
		}
		rounds++
		if !changed {
			break
		}
	}
	return dist, rounds
}

// TestGoldenSSSPMatchesFullScan pins goldenSSSP's distances and round
// count, which set every sp run's length, to the full-scan reference.
func TestGoldenSSSPMatchesFullScan(t *testing.T) {
	large := graph.Table3Graphs["large"].Scaled(1024)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat512", goldenGraph()},
		{"rmat512-sym", goldenGraph().Symmetrize()},
		{"small/256", graph.Table3Graphs["small"].Scaled(256).Generate()},
		{"large/1024", large.Generate()},
		{"path", mustGraph(t, 4, []int32{0, 1, 2}, []int32{1, 2, 3})},
		{"one-vertex", graph.RMAT(1, 4, 1)},
	}
	for _, c := range cases {
		for _, src := range []int{c.g.MaxDegreeVertex(), 0, c.g.NumVertices() - 1} {
			gotDist, gotRounds := goldenSSSP(c.g, src)
			wantDist, wantRounds := fullScanSSSP(c.g, src)
			if gotRounds != wantRounds {
				t.Errorf("%s from %d: %d rounds, want %d", c.name, src, gotRounds, wantRounds)
			}
			for v := range wantDist {
				if gotDist[v] != wantDist[v] {
					t.Errorf("%s from %d: dist[%d] = %d, want %d", c.name, src, v, gotDist[v], wantDist[v])
					break
				}
			}
		}
	}
}

func mustGraph(t *testing.T, n int, src, dst []int32) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeList(n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGoldenWCCInvariants(t *testing.T) {
	g := goldenGraph().Symmetrize()
	labels, rounds := goldenWCC(g)
	if rounds <= 0 {
		t.Fatal("no rounds")
	}
	// Fixpoint: neighbors share labels (the graph is symmetric).
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Successors(v) {
			if labels[v] != labels[w] {
				t.Fatalf("edge (%d,%d) crosses components %d/%d", v, w, labels[v], labels[w])
			}
		}
	}
	// Each label is the minimum vertex id of its component, so the
	// vertex carrying the label must label itself.
	for v := 0; v < g.NumVertices(); v++ {
		l := labels[v]
		if labels[l] != l {
			t.Fatalf("label %d is not its own representative", l)
		}
		if l > uint64(v) {
			t.Fatalf("vertex %d has label %d > its own id", v, l)
		}
	}
}

// fullSweepWCC is the reference for goldenWCC: synchronous label
// propagation that pushes every vertex's label each round from a copy
// of the labels at the start of the round.
func fullSweepWCC(g *graph.Graph) ([]uint64, int) {
	n := g.NumVertices()
	label := make([]uint64, n)
	for v := range label {
		label[v] = uint64(v)
	}
	rounds := 0
	for {
		prev := append([]uint64(nil), label...)
		changed := false
		for v := 0; v < n; v++ {
			for _, succ := range g.Successors(v) {
				if prev[v] < label[succ] {
					label[succ] = prev[v]
					changed = true
				}
			}
		}
		rounds++
		if !changed {
			break
		}
	}
	return label, rounds
}

// TestGoldenWCCMatchesFullSweep pins goldenWCC's labels and round count,
// which set every wcc run's length, to the full-sweep reference on the
// symmetrized inputs wcc runs on.
func TestGoldenWCCMatchesFullSweep(t *testing.T) {
	small := graph.Table3Graphs["small"]
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat512", goldenGraph()},
		{"small/64", small.Scaled(64).Generate()},
		{"small/256", small.Scaled(256).Generate()},
		{"small/1024", small.Scaled(1024).Generate()},
		{"gnutella/64", graph.Figure2Graphs[0].Scaled(64).Generate()},
		{"path", mustGraph(t, 4, []int32{0, 1, 2}, []int32{1, 2, 3})},
		{"one-vertex", graph.RMAT(1, 4, 1)},
	}
	for _, c := range cases {
		g := c.g.Symmetrize()
		gotLabels, gotRounds := goldenWCC(g)
		wantLabels, wantRounds := fullSweepWCC(g)
		if gotRounds != wantRounds {
			t.Errorf("%s: %d rounds, want %d", c.name, gotRounds, wantRounds)
		}
		for v := range wantLabels {
			if gotLabels[v] != wantLabels[v] {
				t.Errorf("%s: label[%d] = %d, want %d", c.name, v, gotLabels[v], wantLabels[v])
				break
			}
		}
	}
}

func TestGoldenPageRankInvariants(t *testing.T) {
	g := goldenGraph()
	gm := &GraphMem{G: g}
	rank, diff := goldenPageRank(gm, 3)
	if diff < 0 {
		t.Fatalf("negative diff %v", diff)
	}
	sum := 0.0
	minRank := math.Inf(1)
	for _, r := range rank {
		sum += r
		if r < minRank {
			minRank = r
		}
	}
	// Every vertex keeps at least the teleport mass.
	base := (1 - prDamping) / float64(g.NumVertices())
	if minRank < base-1e-12 {
		t.Fatalf("min rank %v below teleport mass %v", minRank, base)
	}
	// Total mass stays bounded by 1 (dangling vertices leak mass in
	// this formulation, so <= 1 rather than == 1).
	if sum > 1+1e-9 {
		t.Fatalf("rank mass %v exceeds 1", sum)
	}
	// More iterations must not increase the per-iteration delta for a
	// convergent damped walk.
	_, diff5 := goldenPageRank(gm, 6)
	if diff5 > diff*1.5 {
		t.Fatalf("diff grew with iterations: %v -> %v", diff, diff5)
	}
}

func TestGoldenDeterminism(t *testing.T) {
	g := goldenGraph()
	a, ra := goldenBFS(g, 3)
	b, rb := goldenBFS(g, 3)
	if ra != rb {
		t.Fatal("round counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("golden BFS nondeterministic")
		}
	}
}

// levelBFS is the reference for goldenBFS: BFS one level at a time,
// each level's frontier expanded into the next.
func levelBFS(g *graph.Graph, src int) ([]uint64, int) {
	levels := make([]uint64, g.NumVertices())
	for i := range levels {
		levels[i] = infDist
	}
	levels[src] = 0
	frontier := []int{src}
	depth := 0
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, succ := range g.Successors(v) {
				if levels[succ] == infDist {
					levels[succ] = levels[v] + 1
					next = append(next, int(succ))
				}
			}
		}
		frontier = next
		depth++
	}
	return levels, depth
}

// TestGoldensMatchReferences holds the propagation engine's values and
// round counts for bfs, sp and wcc to their one-vertex-at-a-time
// references, on the inputs of every size at seeds 0 to 3, serially and
// on 2 and 4 workers. The medium and large graphs are above goldenGrain.
func TestGoldensMatchReferences(t *testing.T) {
	type golden struct {
		name     string
		run, ref func(g, sym *graph.Graph, src int) ([]uint64, int)
	}
	goldens := []golden{
		{"bfs",
			func(g, _ *graph.Graph, src int) ([]uint64, int) { return goldenBFS(g, src) },
			func(g, _ *graph.Graph, src int) ([]uint64, int) { return levelBFS(g, src) }},
		{"sp",
			func(g, _ *graph.Graph, src int) ([]uint64, int) { return goldenSSSP(g, src) },
			func(g, _ *graph.Graph, src int) ([]uint64, int) { return fullScanSSSP(g, src) }},
		{"wcc",
			func(_, sym *graph.Graph, _ int) ([]uint64, int) { return goldenWCC(sym) },
			func(_, sym *graph.Graph, _ int) ([]uint64, int) { return fullSweepWCC(sym) }},
	}
	aboveGrain := 0
	for _, size := range []Size{Small, Medium, Large} {
		for seed := int64(0); seed < 4; seed++ {
			g := graphInput(Params{Size: size, Scale: 256, Seed: seed}).Generate()
			sym := g.Symmetrize()
			if g.NumEdges() >= goldenGrain {
				aboveGrain++
			}
			src := g.MaxDegreeVertex()
			for _, gd := range goldens {
				want, wantRounds := gd.ref(g, sym, src)
				for _, procs := range []int{1, 2, 4} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						got, rounds := gd.run(g, sym, src)
						if rounds != wantRounds || !slices.Equal(got, want) {
							t.Errorf("%s on %v/256 seed %d, GOMAXPROCS=%d: %d rounds (want %d), values equal: %v",
								gd.name, size, seed, procs, rounds, wantRounds, slices.Equal(got, want))
						}
					}()
				}
			}
		}
	}
	if aboveGrain == 0 {
		t.Fatal("no graph above goldenGrain: the parallel path went untested")
	}
}

// BenchmarkGoldens times the bfs, sp and wcc goldens on the graph the
// Table 2 machine builds for the large input at scale 16 and seed 1
// (graph.BenchmarkRMAT's graph); wcc runs on its symmetrized form.
func BenchmarkGoldens(b *testing.B) {
	g := graphInput(Params{Size: Large, Scale: 16, Seed: 1}).Generate()
	src := g.MaxDegreeVertex()
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			goldenBFS(g, src)
		}
	})
	b.Run("sp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			goldenSSSP(g, src)
		}
	})
	sym := g.Symmetrize()
	b.Run("wcc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			goldenWCC(sym)
		}
	})
}
