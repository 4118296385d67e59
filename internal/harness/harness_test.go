package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

// ctx is the background context shared by tests that don't exercise
// cancellation.
var ctx = context.Background()

// tinyOptions keeps harness unit tests fast: two workloads, heavy
// scaling, small budgets.
func tinyOptions() Options {
	o := Default()
	o.Scale = 512
	o.OpBudget = 5_000
	o.Workloads = []string{"atf", "hg"}
	o.Pairs = 3
	return o
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"x", "1"}, {"longer", "2"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCellCaches(t *testing.T) {
	r := NewRunner(tinyOptions())
	c := Cell{Workload: "atf", Size: workloads.Small, Mode: pim.HostOnly}
	a, err := r.RunCell(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunCell(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatal("cache returned a different result")
	}
	if len(r.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(r.cache))
	}
}

func TestFig6ProducesAllRows(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb, err := r.Fig6(ctx, workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 { // two workloads + GM
		t.Fatalf("fig6 rows = %d, want 3", len(tb.Rows))
	}
	for _, row := range tb.Rows[:2] {
		for col := 1; col <= 3; col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || v <= 0 {
				t.Fatalf("bad speedup %q in row %v", row[col], row)
			}
		}
	}
}

func TestFig7SharesRunsWithFig6(t *testing.T) {
	r := NewRunner(tinyOptions())
	if _, err := r.Fig6(ctx, workloads.Small); err != nil {
		t.Fatal(err)
	}
	before := len(r.cache)
	if _, err := r.Fig7(ctx, workloads.Small); err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != before {
		t.Fatalf("fig7 re-ran cells: cache %d -> %d", before, len(r.cache))
	}
}

// TestMemoSharing pins the memo's key: a mutate that leaves the config
// equal shares the plain cell, one that changes it does not, and a
// verified run is never served from an unverified entry.
func TestMemoSharing(t *testing.T) {
	r := NewRunner(tinyOptions())
	c := Cell{Workload: "atf", Size: workloads.Small, Mode: pim.LocalityAware}
	plain, err := r.RunCell(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	same, err := r.RunWorkload(ctx, []Program{r.program(c)}, c.Mode,
		func(cfg *config.Config) { cfg.OperandBufferEntries = r.Opts.Cfg.OperandBufferEntries }, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Simulations(); n != 1 || !reflect.DeepEqual(same, plain) {
		t.Fatalf("config-preserving mutate: %d simulations, want 1 and the plain result", n)
	}
	if _, err := r.RunWorkload(ctx, []Program{r.program(c)}, c.Mode,
		func(cfg *config.Config) { cfg.OperandBufferEntries++ }, false); err != nil {
		t.Fatal(err)
	}
	if n := r.Simulations(); n != 2 {
		t.Fatalf("config-changing mutate: %d simulations, want 2", n)
	}

	full := []Program{r.program(c)}
	full[0].Params.OpBudget = 0 // verification needs a complete run
	unverified, err := r.RunWorkload(ctx, full, c.Mode, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := r.RunWorkload(ctx, full, c.Mode, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Simulations(); n != 4 {
		t.Fatalf("verified run after an unverified one: %d simulations, want 4", n)
	}
	if !reflect.DeepEqual(verified, unverified) {
		t.Fatal("verification changed the result")
	}
}

// TestGridColumnMajor pins the grid's order rule: the row index varies
// fastest, so a serial Figure 6 starts every workload under Ideal-Host
// before any under Host-Only, and the pool never runs two modes of one
// input side by side.
func TestGridColumnMajor(t *testing.T) {
	o := tinyOptions()
	o.Parallelism = 1
	var started []string
	o.Progress = func(p Progress) {
		if !p.Done {
			started = append(started, p.Cell)
		}
	}
	if _, err := NewRunner(o).Fig6(ctx, workloads.Small); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range []pim.Mode{pim.IdealHost, pim.HostOnly, pim.PIMOnly, pim.LocalityAware} {
		for _, w := range o.Workloads {
			want = append(want, fmt.Sprintf("%s/%s/%s", w, workloads.Small, m))
		}
	}
	if !reflect.DeepEqual(started, want) {
		t.Fatalf("start order\n got %v\nwant %v", started, want)
	}
}

// TestMemoSimulationCounts pins how many machines figures that revisit
// design points build on a 2-workload runner: a sensitivity table's
// base column and its default variants share runs (Fig 11's default
// column is its own baseline, IgnoreBit's default row costs nothing),
// a second Fig 9 is served from the memo, and Fig 8 reuses Fig 2's
// PIM-Only runs.
func TestMemoSimulationCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("graph sweep is slow")
	}
	o := tinyOptions()
	o.Scale = 2048
	o.OpBudget = 3_000
	render := func(r *Runner, figs ...func(*Runner) (*Table, error)) string {
		var buf bytes.Buffer
		for _, f := range figs {
			tb, err := f(r)
			if err != nil {
				t.Fatal(err)
			}
			tb.Render(&buf)
		}
		return buf.String()
	}
	fig2 := func(r *Runner) (*Table, error) { return r.Fig2(ctx) }
	fig8 := func(r *Runner) (*Table, error) { return r.Fig8(ctx) }
	fig9 := func(r *Runner) (*Table, error) { return r.Fig9(ctx) }
	var shared string // the last case's tables: Fig 2 and Fig 8 on one runner
	for _, tc := range []struct {
		name string
		figs []func(*Runner) (*Table, error)
		want int64
	}{
		{"fig11a", []func(*Runner) (*Table, error){func(r *Runner) (*Table, error) { return r.Fig11a(ctx) }}, 10},
		{"fig11b", []func(*Runner) (*Table, error){func(r *Runner) (*Table, error) { return r.Fig11b(ctx) }}, 6},
		{"ignorebit", []func(*Runner) (*Table, error){func(r *Runner) (*Table, error) { return r.AblationIgnoreBit(ctx) }}, 4},
		{"partialtag", []func(*Runner) (*Table, error){func(r *Runner) (*Table, error) { return r.AblationPartialTagWidth(ctx) }}, 10},
		{"sec7.6", []func(*Runner) (*Table, error){func(r *Runner) (*Table, error) { return r.Sec76(ctx) }}, 8},
		{"fig9 twice", []func(*Runner) (*Table, error){fig9, fig9}, 3 * int64(o.Pairs)},
		{"fig2+fig8", []func(*Runner) (*Table, error){fig2, fig8}, 36},
	} {
		r := NewRunner(o)
		out := render(r, tc.figs...)
		if n := r.Simulations(); n != tc.want {
			t.Errorf("%s: %d simulations, want %d", tc.name, n, tc.want)
		}
		shared = out
	}
	if fresh := render(NewRunner(o), fig2) + render(NewRunner(o), fig8); shared != fresh {
		t.Fatalf("shared runner rendered differently from fresh ones:\n--- shared ---\n%s--- fresh ---\n%s", shared, fresh)
	}
}

// TestFig9GridColumnMajor: Figure 9 is a pairs × modes grid, so a
// serial run starts every pair under Host-Only, then under PIM-Only,
// then under Locality-Aware, and each run's label names both programs
// of its pair.
func TestFig9GridColumnMajor(t *testing.T) {
	o := tinyOptions()
	o.Parallelism = 1
	var started []string
	o.Progress = func(p Progress) {
		if !p.Done {
			started = append(started, p.Cell)
		}
	}
	tb, err := NewRunner(o).Fig9(ctx)
	if err != nil {
		t.Fatal(err)
	}
	modes := []pim.Mode{pim.HostOnly, pim.PIMOnly, pim.LocalityAware}
	if len(started) != len(modes)*o.Pairs {
		t.Fatalf("%d runs started, want %d: %v", len(started), len(modes)*o.Pairs, started)
	}
	var mixes, want []string
	for j, m := range modes {
		for p := 0; p < o.Pairs; p++ {
			got := started[j*o.Pairs+p]
			pair, ok := strings.CutSuffix(got, "/"+m.String())
			if !ok || pair != strings.TrimSuffix(started[p], "/"+modes[0].String()) {
				t.Fatalf("run %d is %q, want pair %d under %s", j*o.Pairs+p, got, p, m)
			}
			if j == 0 {
				// "w1/s1+w2/s2" is the table's "w1-s1+w2-s2".
				mixes = append(mixes, strings.ReplaceAll(pair, "/", "-"))
			}
		}
	}
	for _, row := range tb.Rows {
		want = append(want, row[1])
	}
	sort.Strings(mixes)
	sort.Strings(want)
	if !reflect.DeepEqual(mixes, want) {
		t.Fatalf("run labels name mixes %v, table has %v", mixes, want)
	}
}

func TestFig9PairsRun(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb, err := r.Fig9(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("fig9 rows = %d, want 3", len(tb.Rows))
	}
	// Sorted ascending by Locality-Aware speedup.
	var prev float64
	for i, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && v < prev {
			t.Fatal("fig9 rows not sorted")
		}
		prev = v
	}
}

func TestFig10BalancedDispatch(t *testing.T) {
	o := tinyOptions()
	o.Workloads = []string{"sc"}
	r := NewRunner(o)
	tb, err := r.Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig11Sweeps(t *testing.T) {
	o := tinyOptions()
	o.Workloads = []string{"atf"}
	r := NewRunner(o)
	ta, err := r.Fig11a(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Rows) != 5 {
		t.Fatalf("fig11a rows = %d", len(ta.Rows))
	}
	// The 4-entry default row must have speedup exactly 1.
	if ta.Rows[2][0] != "4" || ta.Rows[2][1] != "1.000" {
		t.Fatalf("default row wrong: %v", ta.Rows[2])
	}
	tbl, err := r.Fig11b(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig11b rows = %d", len(tbl.Rows))
	}
}

func TestSec76(t *testing.T) {
	o := tinyOptions()
	o.Workloads = []string{"atf"}
	r := NewRunner(o)
	tb, err := r.Sec76(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Idealizing the PMU must not make things dramatically faster (the
	// paper's point: the real PMU is near-free).
	for _, row := range tb.Rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		if v > 1.5 || v < 0.7 {
			t.Fatalf("PMU idealization changed performance by %vx — too much", v)
		}
	}
}

func TestFig12Energy(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb, err := r.Fig12(ctx, workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for col := 1; col <= 3; col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || v <= 0 {
				t.Fatalf("bad energy ratio %q", row[col])
			}
		}
	}
}

func TestFig2AndFig8GraphSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("graph sweep is slow")
	}
	o := tinyOptions()
	o.Scale = 2048 // shrink the nine graphs hard
	o.OpBudget = 3_000
	r := NewRunner(o)
	t2, err := r.Fig2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 9 {
		t.Fatalf("fig2 rows = %d, want 9", len(t2.Rows))
	}
	t8, err := r.Fig8(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) != 9 {
		t.Fatalf("fig8 rows = %d, want 9", len(t8.Rows))
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o = o.withDefaults()
	if o.Cfg == nil || o.Scale <= 0 || len(o.Workloads) != 10 || o.Pairs <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Fatalf("geomean = %v, want 2", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
}

func TestTableBars(t *testing.T) {
	tb := &Table{
		Title:     "bars",
		Header:    []string{"k", "v"},
		Rows:      [][]string{{"a", "2.0"}, {"b", "1.0"}, {"c", "4.0"}},
		BarColumn: 1,
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "##############################") {
		t.Fatalf("missing full-width bar for the max row:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	bars := map[string]int{}
	for _, l := range lines {
		for _, k := range []string{"a", "b", "c"} {
			if strings.HasPrefix(l, k) {
				bars[k] = strings.Count(l, "#")
			}
		}
	}
	if bars["c"] != 30 || bars["a"] <= bars["b"] || bars["b"] == 0 {
		t.Fatalf("bar proportions wrong: %v", bars)
	}
}

func TestTableBarsDisabledByDefault(t *testing.T) {
	tb := &Table{Header: []string{"k", "v"}, Rows: [][]string{{"a", "1"}}}
	var buf bytes.Buffer
	tb.Render(&buf)
	if strings.Contains(buf.String(), "#") {
		t.Fatal("bars rendered without BarColumn")
	}
}
