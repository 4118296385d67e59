package workloads

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/graph"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
)

func testParams() Params {
	return Params{Threads: 4, Size: Small, Scale: 512}
}

// runWorkload builds a scaled machine, runs the workload to completion,
// and verifies functional results.
func runWorkload(t *testing.T, name string, mode pim.Mode, p Params) machine.Result {
	t.Helper()
	w, err := New(name, p)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.MustNew(config.Scaled(), mode)
	streams := w.Streams(m)
	if len(streams) != p.Threads {
		t.Fatalf("%s: %d streams, want %d", name, len(streams), p.Threads)
	}
	res, err := m.RunContext(context.Background(), streams)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := w.Verify(m); err != nil {
		t.Fatalf("%s verification failed (%s): %v", name, mode, err)
	}
	if res.PEIs == 0 {
		t.Fatalf("%s issued no PEIs", name)
	}
	checkPEIsRetired(t, m, name)
	return res
}

// checkPEIsRetired asserts that every PEI the PMU accepted retired
// exactly once, at the core that issued it: at the end of a run the
// PMU's issue counter (pei.total) equals the PEIs the cores retired.
func checkPEIsRetired(t *testing.T, m *machine.Machine, name string) {
	t.Helper()
	var retired int64
	for _, c := range m.Cores {
		retired += c.RetiredPEIs
	}
	if issued := m.Reg.Get("pei.total"); issued != retired {
		t.Fatalf("%s (%s): pei.total %d, cores retired %d PEIs", name, m.PMU.Mode, issued, retired)
	}
}

// Every workload must produce correct results in every execution mode —
// this is the end-to-end proof that atomicity (PIM directory), coherence
// (back-invalidation/back-writeback), and steering do not corrupt data.
func TestAllWorkloadsAllModes(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, mode := range []pim.Mode{pim.HostOnly, pim.PIMOnly, pim.LocalityAware, pim.IdealHost} {
				runWorkload(t, name, mode, testParams())
			}
		})
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := runWorkload(t, "pr", pim.LocalityAware, testParams())
	b := runWorkload(t, "pr", pim.LocalityAware, testParams())
	if a.Cycles != b.Cycles || a.PEIMem != b.PEIMem {
		t.Fatalf("pr nondeterministic: %d/%d vs %d/%d cycles/mem", a.Cycles, a.PEIMem, b.Cycles, b.PEIMem)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	p := testParams()
	p2 := p
	p2.Seed = 99
	a := runWorkload(t, "hj", pim.HostOnly, p)
	b := runWorkload(t, "hj", pim.HostOnly, p2)
	if a.PEIs == b.PEIs && a.Cycles == b.Cycles {
		t.Log("seeds produced identical runs; acceptable but suspicious")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := New("nope", Params{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want Size
	}{{"small", Small}, {"medium", Medium}, {"large", Large}} {
		got, err := ParseSize(tc.s)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSize(%q) = %v, %v", tc.s, got, err)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPartitionRangeCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 101} {
		for threads := 1; threads <= 8; threads++ {
			covered := 0
			prevHi := 0
			for t2 := 0; t2 < threads; t2++ {
				lo, hi := PartitionRange(n, threads, t2)
				if lo != prevHi {
					t.Fatalf("gap: n=%d threads=%d t=%d lo=%d prevHi=%d", n, threads, t2, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d threads=%d covered %d", n, threads, covered)
			}
		}
	}
}

func TestSingleThreadWorkloads(t *testing.T) {
	p := testParams()
	p.Threads = 1
	for _, name := range []string{"atf", "bfs", "hg"} {
		runWorkload(t, name, pim.LocalityAware, p)
	}
}

// PageRank on a graph that fits in cache should steer mostly to the
// host; the same workload with a large (relative to cache) graph should
// offload mostly to memory — the paper's central claim, in miniature.
func TestLocalitySteeringMatchesFootprint(t *testing.T) {
	pSmall := Params{Threads: 4, Size: Small, Scale: 2048} // tiny graph
	small := runWorkload(t, "atf", pim.LocalityAware, pSmall)
	// Scale 64 leaves a ~600 KB PEI-target array against the scaled
	// 256 KB L3: a genuinely memory-resident footprint.
	pLarge := Params{Threads: 4, Size: Large, Scale: 64}
	large := runWorkload(t, "atf", pim.LocalityAware, pLarge)
	if small.PIMFraction() > 0.5 {
		t.Fatalf("small input offloaded %.0f%% to memory", 100*small.PIMFraction())
	}
	if large.PIMFraction() < 0.3 {
		t.Fatalf("large input offloaded only %.0f%% to memory", 100*large.PIMFraction())
	}
	if large.PIMFraction() <= small.PIMFraction() {
		t.Fatal("PIM fraction should grow with footprint")
	}
}

// Sanity check Figure 6's qualitative result at miniature scale: for a
// large input, PIM-Only beats Host-Only; for a cache-resident input,
// Host-Only beats PIM-Only; Locality-Aware is never far behind the best.
func TestFig6ShapeMiniature(t *testing.T) {
	largeP := Params{Threads: 4, Size: Large, Scale: 64}
	hostL := runWorkload(t, "atf", pim.HostOnly, largeP)
	pimL := runWorkload(t, "atf", pim.PIMOnly, largeP)
	laL := runWorkload(t, "atf", pim.LocalityAware, largeP)
	if pimL.Cycles >= hostL.Cycles {
		t.Logf("warning: PIM-Only (%d) did not beat Host-Only (%d) on large input",
			pimL.Cycles, hostL.Cycles)
	}
	bestL := hostL.Cycles
	if pimL.Cycles < bestL {
		bestL = pimL.Cycles
	}
	if float64(laL.Cycles) > 1.4*float64(bestL) {
		t.Fatalf("Locality-Aware (%d) is >40%% behind best (%d) on large input", laL.Cycles, bestL)
	}

	smallP := Params{Threads: 4, Size: Small, Scale: 2048}
	hostS := runWorkload(t, "atf", pim.HostOnly, smallP)
	pimS := runWorkload(t, "atf", pim.PIMOnly, smallP)
	laS := runWorkload(t, "atf", pim.LocalityAware, smallP)
	if hostS.Cycles >= pimS.Cycles {
		t.Fatalf("Host-Only (%d) should beat PIM-Only (%d) on cache-resident input",
			hostS.Cycles, pimS.Cycles)
	}
	if float64(laS.Cycles) > 1.4*float64(hostS.Cycles) {
		t.Fatalf("Locality-Aware (%d) is >40%% behind Host-Only (%d) on small input", laS.Cycles, hostS.Cycles)
	}
}

// Functional results must be independent of the machine's timing
// parameters: any window size, issue width, cache geometry, vault count,
// or VM setting yields the same verified answers. This pins the
// timing/function split the whole simulator rests on.
func TestFunctionIndependentOfTiming(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"serial-core", func(c *config.Config) { c.WindowSize = 1; c.IssueWidth = 1 }},
		{"tiny-caches", func(c *config.Config) {
			c.L1 = config.CacheConfig{SizeBytes: 1 << 10, Ways: 2, LatencyCycles: 4, MSHRs: 2}
			c.L2 = config.CacheConfig{SizeBytes: 4 << 10, Ways: 4, LatencyCycles: 12, MSHRs: 2}
			c.L3 = config.CacheConfig{SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 30, MSHRs: 8}
			c.L3Banks = 2
		}},
		{"one-vault", func(c *config.Config) { c.VaultsPerCube = 1; c.BanksPerVault = 2 }},
		{"slow-links", func(c *config.Config) { c.LinkBytesPerCycle = 1; c.TSVBytesPerCycle = 0.5 }},
		{"vm-on", func(c *config.Config) { c.EnableVM = true }},
		{"tiny-directory", func(c *config.Config) { c.DirectoryEntries = 2 }},
		{"one-buffer", func(c *config.Config) { c.OperandBufferEntries = 1 }},
	}
	p := Params{Threads: 4, Size: Small, Scale: 1024}
	for _, mu := range mutations {
		mu := mu
		t.Run(mu.name, func(t *testing.T) {
			cfg := config.Scaled()
			mu.mutate(cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"bfs", "pr", "hj"} {
				w := MustNew(name, p)
				m := machine.MustNew(cfg, pim.LocalityAware)
				if _, err := m.RunContext(context.Background(), w.Streams(m)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := w.Verify(m); err != nil {
					t.Fatalf("%s under %s: %v", name, mu.name, err)
				}
				checkPEIsRetired(t, m, name)
			}
		})
	}
}

// A budget-truncated run must terminate cleanly (no barrier deadlock)
// for every workload, including multi-round ones.
func TestBudgetedRunsTerminate(t *testing.T) {
	for _, name := range Names {
		p := Params{Threads: 4, Size: Small, Scale: 512, OpBudget: 500}
		w := MustNew(name, p)
		m := machine.MustNew(config.Scaled(), pim.LocalityAware)
		res, err := m.RunContext(context.Background(), w.Streams(m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Retired == 0 {
			t.Fatalf("%s made no progress under budget", name)
		}
	}
}

// TestBudgetedRoundsMatchUnbudgeted: a budget-truncated bfs or sp
// keeps its round count but not the golden per-vertex array, and that
// count must equal the unbudgeted run's over seeds and sizes; the
// truncated run keeps no golden and refuses to verify.
func TestBudgetedRoundsMatchUnbudgeted(t *testing.T) {
	for _, name := range []string{"bfs", "sp"} {
		for _, size := range []Size{Small, Medium, Large} {
			for seed := int64(0); seed < 3; seed++ {
				rounds := func(budget int64) (int, Workload, *machine.Machine) {
					w := MustNew(name, Params{Threads: 4, Size: size, Scale: 256, Seed: seed, OpBudget: budget})
					m := machine.MustNew(config.Scaled(), pim.LocalityAware)
					w.Streams(m)
					return w.Rounds(), w, m
				}
				want, _, _ := rounds(0)
				got, w, m := rounds(500)
				if got != want || want <= 0 {
					t.Errorf("%s size %v seed %d: budgeted run has %d rounds, unbudgeted %d", name, size, seed, got, want)
				}
				if err := w.Verify(m); err == nil {
					t.Errorf("%s size %v seed %d: budgeted run verified without a golden", name, size, seed)
				}
			}
		}
	}
}

// TestCachedGraphBuildsOnce: cells of one grid column ask for the same
// graph at the same time, and all of them must get the one build; a
// symmetrized request derives from, and caches, the directed graph.
// Each call that builds forces one collection, even when it builds both
// graphs, and a cache hit forces none.
func TestCachedGraphBuildsOnce(t *testing.T) {
	forced := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumForcedGC
	}
	spec := graph.DatasetSpec{Name: "cache-test", Vertices: 300, Edges: 2000, Seed: 5}
	const callers = 8
	gc0 := forced()
	got := make([]*graph.Graph, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = cachedGraph(spec, false)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("caller %d got graph %p, caller 0 got %p", i, g, got[0])
		}
	}
	if n := forced() - gc0; n != 1 {
		t.Fatalf("one build by %d callers ran %d collections, want 1", callers, n)
	}

	symSpec := spec
	symSpec.Seed = 6
	gc0 = forced()
	sym := cachedGraph(symSpec, true)
	if n := forced() - gc0; n != 1 {
		t.Fatalf("building a directed and a symmetrized graph ran %d collections, want 1", n)
	}
	v, ok := graphCache.Load(graphKey(symSpec, false))
	if !ok {
		t.Fatal("symmetrized request left no directed entry")
	}
	directed := v.(*graphEntry).g
	if directed == nil || cachedGraph(symSpec, false) != directed {
		t.Fatal("directed entry is not the graph cachedGraph returns")
	}
	if sym.NumEdges() != 2*directed.NumEdges() || cachedGraph(symSpec, true) != sym {
		t.Fatalf("symmetrized graph has %d edges, directed %d, or was rebuilt", sym.NumEdges(), directed.NumEdges())
	}
	if n := forced() - gc0; n != 1 {
		t.Fatalf("cache hits ran %d more collections, want none", n-1)
	}
}
