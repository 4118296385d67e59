package lint

import (
	"strings"
	"testing"
)

// The golden suites: each analyzer must catch its seeded violations and
// accept its waived lines (the testdata has no want comment on waived
// lines, so these tests fail unless suppression works).

func TestSimDeterm(t *testing.T)    { AnalyzerTest(t, SimDeterm, "simdeterm") }
func TestStatsHandle(t *testing.T)  { AnalyzerTest(t, StatsHandle, "statshandle") }
func TestCtxFirst(t *testing.T)     { AnalyzerTest(t, CtxFirst, "ctxfirst") }
func TestHotAlloc(t *testing.T)     { AnalyzerTest(t, HotAlloc, "hotalloc") }
func TestSnapComplete(t *testing.T) { AnalyzerTest(t, SnapComplete, "snapcomplete") }

// TestFactChain pins inter-procedural fact propagation: the
// wall-clock read sits two packages below the checked code
// (simuser → mid → leaf → time.Now), so only facts flowing through the
// driver's topological analysis can surface it — and the diagnostic
// must carry the full witness chain.
func TestFactChain(t *testing.T) { AnalyzerTest(t, SimDeterm, "factchain/simuser") }

// TestStaleWaivers pins the driver's stale-waiver pass: a directive
// that suppresses real findings survives; a directive whose analyzer
// reports nothing on its lines — including one naming an analyzer that
// does not even apply to the package — is itself a finding.
func TestStaleWaivers(t *testing.T) {
	loader := testdataLoader(t)
	pkg, err := loader.LoadDir("testdata/src/stalewaiver", "peilinttest/stalewaiver")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Analyze(loader, []*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want exactly the 2 stale waivers:\n%v", len(diags), diags)
	}
	wantSubstrings := []string{"stale waiver: snapcomplete", "stale waiver: hotalloc"}
	for i, d := range diags {
		if d.Analyzer != "waiver" {
			t.Errorf("diagnostic %d from %q, want the waiver analyzer: %s", i, d.Analyzer, d)
		}
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in:\n%v", want, diags)
		}
	}
}

// TestWaiverValidation covers the waiver mechanism itself: a directive
// with a typo'd analyzer name, a missing reason, or no arguments at all
// is reported, while a well-formed directive is accepted.
func TestWaiverValidation(t *testing.T) { AnalyzerTest(t, Waiver, "waiverbad") }

// TestMalformedWaiverDoesNotSuppress pins the fail-closed property: the
// malformed directives in the waiverbad package must NOT suppress the
// simdeterm findings on their lines.
func TestMalformedWaiverDoesNotSuppress(t *testing.T) {
	loader := testdataLoader(t)
	pkg, err := loader.LoadDir("testdata/src/waiverbad", "peilinttest/waiverbad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analyzeSingle(loader, pkg, SimDeterm)
	if err != nil {
		t.Fatal(err)
	}
	// Four time.Now sites; exactly one (the valid directive) is waived.
	if len(diags) != 3 {
		t.Fatalf("got %d simdeterm diagnostics, want 3 (malformed waivers must not suppress):\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "time.Now") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestAnalyzerScope pins each analyzer's package perimeter: the driver
// must apply simdeterm to every simulator package and must apply
// hotalloc to the event kernel plus the per-event component packages
// (cache, dram, hmc, pim) — but not to the generation-time layers above
// them.
func TestAnalyzerScope(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		rel      string
		want     bool
	}{
		{SimDeterm, "internal/sim", true},
		{SimDeterm, "internal/workloads", true},
		{SimDeterm, "internal/harness", false},
		{SimDeterm, "cmd/peibench", false},
		{StatsHandle, "internal/cache", true},
		{StatsHandle, "internal/stats", false}, // the registry itself
		{CtxFirst, "pei", true},
		{CtxFirst, "internal/workloads", false},
		{HotAlloc, "internal/sim", true},
		{HotAlloc, "internal/cache", true},
		{HotAlloc, "internal/dram", true},
		{HotAlloc, "internal/hmc", true},
		{HotAlloc, "internal/pim", true},
		{HotAlloc, "internal/cpu", true},
		{HotAlloc, "internal/workloads", false},
		{SnapComplete, "internal/sim", true}, // any package that snapshots
		{SnapComplete, "internal/graph", true},
		{Waiver, "internal/graph", true}, // waiver validates everywhere
		{Waiver, "cmd/peilint", true},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.rel); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.rel, got, c.want)
		}
	}
}

// TestSuiteCleanOnTree runs the full suite over the repository's own
// simulator packages and requires zero findings — the same gate CI
// enforces via `go run ./cmd/peilint ./...`, pinned here so `go test`
// alone catches a regression.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; expected the whole module", len(pkgs))
	}
	diags, err := Analyze(loader, pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
