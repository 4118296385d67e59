package harness

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"pimsim/internal/config"
	"pimsim/internal/graph"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

// Every figure declares its simulations as a grid of cells (rows:
// workloads, graphs or pairs; columns: modes or design variants) and
// runs it through Runner.grid, then assembles rows serially in declared
// order — so rendered tables are byte-identical at any
// Options.Parallelism.

// A grid column is a partial Cell, its mode and config mutation; each
// row fills in the input. fourModes are the four system configurations
// of §7.
var fourModes = []Cell{{Mode: pim.IdealHost}, {Mode: pim.HostOnly}, {Mode: pim.PIMOnly}, {Mode: pim.LocalityAware}}

// byWorkload runs every configured workload at size (rows) under each
// of cols.
func (r *Runner) byWorkload(ctx context.Context, size workloads.Size, cols []Cell) ([][]machine.Result, error) {
	return r.grid(ctx, len(r.Opts.Workloads), len(cols), func(i, j int) Cell {
		c := cols[j]
		c.Workload, c.Size = r.Opts.Workloads[i], size
		return c
	})
}

// byGraph runs PageRank on each of the nine Figure 2/8 graphs (rows)
// under each of cols.
func (r *Runner) byGraph(ctx context.Context, cols []Cell) ([][]machine.Result, error) {
	specs := graph.Figure2Graphs
	return r.grid(ctx, len(specs), len(cols), func(i, j int) Cell {
		c := cols[j]
		c.Workload, c.Size, c.Graph = "pr", workloads.Large, &specs[i]
		return c
	})
}

// Fig2 reproduces Figure 2: PageRank speedup of always-in-memory atomic
// add (PIM-Only) over the idealized host, across the nine graphs.
func (r *Runner) Fig2(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Figure 2: PageRank with in-memory atomic add (speedup over Ideal-Host)",
		Header: []string{"graph", "host_cycles", "pim_cycles", "speedup"},
		Notes: []string{
			"paper: up to +53% on large graphs, up to -20% on cache-resident graphs",
			fmt.Sprintf("graphs are R-MAT stand-ins scaled 1/%d (DESIGN.md §3)", r.Opts.Scale),
		},
	}
	res, err := r.byGraph(ctx, []Cell{{Mode: pim.IdealHost}, {Mode: pim.PIMOnly}})
	if err != nil {
		return nil, err
	}
	for i, spec := range graph.Figure2Graphs {
		host, mem := res[i][0], res[i][1]
		t.Rows = append(t.Rows, []string{spec.Name, fmt.Sprint(host.Cycles), fmt.Sprint(mem.Cycles), fmtF(speedup(host, mem))})
	}
	return t, nil
}

// Fig6 reproduces Figure 6: speedups of Host-Only, PIM-Only, and
// Locality-Aware over Ideal-Host for the ten workloads under one input
// size. The paper's sub-figures (a/b/c) are the three sizes.
func (r *Runner) Fig6(ctx context.Context, size workloads.Size) (*Table, error) {
	t := &Table{
		Title:     fmt.Sprintf("Figure 6 (%s inputs): speedup over Ideal-Host", size),
		Header:    []string{"workload", "Host-Only", "PIM-Only", "Locality-Aware", "PIM%"},
		BarColumn: 3,
	}
	res, err := r.byWorkload(ctx, size, fourModes)
	if err != nil {
		return nil, err
	}
	var host, mem, la []float64
	for i, name := range r.Opts.Workloads {
		c := res[i]
		sh, sp, sl := speedup(c[0], c[1]), speedup(c[0], c[2]), speedup(c[0], c[3])
		host = append(host, sh)
		mem = append(mem, sp)
		la = append(la, sl)
		t.Rows = append(t.Rows, []string{name, fmtF(sh), fmtF(sp), fmtF(sl), fmtPct(c[3].PIMFraction())})
	}
	t.Rows = append(t.Rows, []string{"GM", fmtF(geomean(host)), fmtF(geomean(mem)), fmtF(geomean(la)), ""})
	return t, nil
}

// Fig7 reproduces Figure 7: total off-chip transfer of Host-Only and
// PIM-Only normalized to Ideal-Host.
func (r *Runner) Fig7(ctx context.Context, size workloads.Size) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 7 (%s inputs): off-chip transfer normalized to Ideal-Host", size),
		Header: []string{"workload", "Host-Only", "PIM-Only", "Locality-Aware"},
		Notes:  []string{"paper: PIM-Only ≪ 1 on large inputs, up to 502x on small (SC)"},
	}
	res, err := r.byWorkload(ctx, size, fourModes)
	if err != nil {
		return nil, err
	}
	for i, name := range r.Opts.Workloads {
		c := res[i]
		norm := func(x machine.Result) string {
			if c[0].OffchipBytes == 0 {
				return fmtF(0)
			}
			return fmtF(float64(x.OffchipBytes) / float64(c[0].OffchipBytes))
		}
		t.Rows = append(t.Rows, []string{name, norm(c[1]), norm(c[2]), norm(c[3])})
	}
	return t, nil
}

// Fig8 reproduces Figure 8: PageRank across the nine graphs under
// Host-Only, PIM-Only, and Locality-Aware (normalized to Host-Only),
// with the fraction of PEIs executed memory-side.
func (r *Runner) Fig8(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:     "Figure 8: PageRank vs graph size (speedup over Host-Only)",
		Header:    []string{"graph", "PIM-Only", "Locality-Aware", "PIM%"},
		BarColumn: 3,
		Notes: []string{
			"paper: PIM% grows from 0.3% (soc-Slashdot0811) to 87% (cit-Patents)",
		},
	}
	res, err := r.byGraph(ctx, fourModes[1:])
	if err != nil {
		return nil, err
	}
	for i, spec := range graph.Figure2Graphs {
		host, mem, la := res[i][0], res[i][1], res[i][2]
		t.Rows = append(t.Rows, []string{spec.Name, fmtF(speedup(host, mem)), fmtF(speedup(host, la)), fmtPct(la.PIMFraction())})
	}
	return t, nil
}

// mixSeed seeds the RNG that draws Figure 9's workload mixes; every
// golden table was generated from this draw sequence.
const mixSeed = 12345

// Fig9 reproduces Figure 9: randomly mixed multiprogrammed pairs, each
// application on half the cores, measuring IPC-sum speedup of
// Locality-Aware and PIM-Only over Host-Only. Rows are sorted by
// Locality-Aware speedup, matching the paper's sorted curves.
func (r *Runner) Fig9(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 9: %d multiprogrammed pairs (IPC sum over Host-Only, sorted)", r.Opts.Pairs),
		Header: []string{"pair", "mix", "PIM-Only", "Locality-Aware"},
		Notes:  []string{"paper: Locality-Aware beats both baselines for the overwhelming majority"},
	}
	sizes := []workloads.Size{workloads.Small, workloads.Medium, workloads.Large}
	// The mixes are drawn serially before fan-out so the RNG sequence —
	// and therefore the mix list — is identical at any parallelism.
	rng := rand.New(rand.NewSource(mixSeed))
	pairs := make([]Cell, r.Opts.Pairs)
	for p := range pairs {
		w1 := r.Opts.Workloads[rng.Intn(len(r.Opts.Workloads))]
		w2 := r.Opts.Workloads[rng.Intn(len(r.Opts.Workloads))]
		// Preserve the seed's historical draw order: w1, w2, s1, s2.
		s1 := sizes[rng.Intn(len(sizes))]
		s2 := sizes[rng.Intn(len(sizes))]
		seed := 2 * int64(p)
		pairs[p] = Cell{Workload: w1, Size: s1, Seed: seed + 1, With: &Cell{Workload: w2, Size: s2, Seed: seed + 2}}
	}
	modes := fourModes[1:] // Host-Only, PIM-Only, Locality-Aware
	res, err := r.grid(ctx, len(pairs), len(modes), func(i, j int) Cell {
		c := pairs[i]
		c.Mode = modes[j].Mode
		return c
	})
	if err != nil {
		return nil, err
	}
	type row struct {
		mix  string
		pimS float64
		laS  float64
	}
	rows := make([]row, len(pairs))
	for p, c := range pairs {
		host, mem, la := res[p][0], res[p][1], res[p][2]
		mix := fmt.Sprintf("%s-%s+%s-%s", c.Workload, c.Size, c.With.Workload, c.With.Size)
		rows[p] = row{mix: mix, pimS: mem.IPC() / host.IPC(), laS: la.IPC() / host.IPC()}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].laS < rows[j].laS })
	better := 0
	for i, rw := range rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(i), rw.mix, fmtF(rw.pimS), fmtF(rw.laS)})
		if rw.laS >= rw.pimS && rw.laS >= 1.0 {
			better++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Locality-Aware ≥ both baselines in %d/%d mixes", better, len(rows)))
	return t, nil
}

// Fig10 reproduces Figure 10: speedup of balanced dispatch (§7.4) on
// top of Locality-Aware, large inputs.
func (r *Runner) Fig10(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Figure 10: balanced dispatch speedup over plain Locality-Aware (large inputs)",
		Header: []string{"workload", "LA_cycles", "LA+BD_cycles", "speedup"},
		Notes:  []string{"paper: up to +25%, biggest on SC/SVM (read-dominated, large inputs)"},
	}
	res, err := r.byWorkload(ctx, workloads.Large, []Cell{
		{Mode: pim.LocalityAware},
		{Mode: pim.LocalityAware, Mutate: func(c *config.Config) { c.BalancedDispatch = true }},
	})
	if err != nil {
		return nil, err
	}
	var all []float64
	for i, name := range r.Opts.Workloads {
		la, bd := res[i][0], res[i][1]
		s := speedup(la, bd)
		all = append(all, s)
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(la.Cycles), fmt.Sprint(bd.Cycles), fmtF(s)})
	}
	t.Rows = append(t.Rows, []string{"GM", "", "", fmtF(geomean(all))})
	return t, nil
}

// Fig11a reproduces Figure 11a: sensitivity to operand buffer size
// (normalized to the 4-entry default), Locality-Aware, geometric mean
// over workloads; min/max columns give the error bars.
func (r *Runner) Fig11a(ctx context.Context) (*Table, error) {
	return r.pcuSweep(ctx, "Figure 11a: operand buffer entries (speedup vs 4-entry default)",
		[]int{1, 2, 4, 8, 16},
		func(c *config.Config, v int) { c.OperandBufferEntries = v },
		4)
}

// Fig11b reproduces Figure 11b: sensitivity to PCU execution width.
func (r *Runner) Fig11b(ctx context.Context) (*Table, error) {
	return r.pcuSweep(ctx, "Figure 11b: PCU execution width (speedup vs single-issue default)",
		[]int{1, 2, 4},
		func(c *config.Config, v int) { c.PCUExecWidth = v },
		1)
}

// pcuSweep reports the Locality-Aware medium cells at every value as a
// speedup over the design set to def.
func (r *Runner) pcuSweep(ctx context.Context, title string, values []int, set func(*config.Config, int), def int) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"value", "GM_speedup", "min", "max"},
		Notes:  []string{"paper: 4-entry buffers buy >30% over 1-entry; width beyond 1 is negligible"},
	}
	return r.sensitivity(ctx, t, workloads.Medium, func(c *config.Config) { set(c, def) }, sweep(values, set), true)
}

// Sec76 reproduces §7.6: the performance cost of the real PMU versus
// idealized directory and locality-monitor structures.
func (r *Runner) Sec76(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Section 7.6: PMU idealization (speedup over real PMU, geometric mean)",
		Header: []string{"variant", "GM_speedup"},
		Notes:  []string{"paper: ideal directory +0.13%, ideal monitor +0.31% - both negligible"},
	}
	idealDir := func(c *config.Config) { c.IdealDirectory = true; c.DirectoryLatency = 0 }
	idealMon := func(c *config.Config) { c.IdealMonitor = true; c.MonitorLatency = 0 }
	return r.sensitivity(ctx, t, workloads.Medium, nil, []variant{
		{"ideal directory", idealDir},
		{"ideal monitor", idealMon},
		{"both ideal", func(c *config.Config) { idealDir(c); idealMon(c) }},
	}, false)
}

// variant is one design point of a sensitivity table: its row label
// and the config change it makes (nil: the runner's config).
type variant struct {
	name   string
	mutate func(*config.Config)
}

// sweep builds one variant per value, labelled by the value.
func sweep[T any](values []T, set func(*config.Config, T)) []variant {
	vs := make([]variant, len(values))
	for k, v := range values {
		vs[k] = variant{fmt.Sprint(v), func(c *config.Config) { set(c, v) }}
	}
	return vs
}

// sensitivity appends one row per variant to t: the geometric-mean
// speedup over base across the configured workloads (size inputs,
// Locality-Aware), plus the per-workload min and max when minMax is
// set. Its grid has the base design in column 0 and one column per
// variant; a variant whose config equals base shares base's runs
// through the memo.
func (r *Runner) sensitivity(ctx context.Context, t *Table, size workloads.Size, base func(*config.Config), vs []variant, minMax bool) (*Table, error) {
	cols := []Cell{{Mode: pim.LocalityAware, Mutate: base}}
	for _, v := range vs {
		cols = append(cols, Cell{Mode: pim.LocalityAware, Mutate: v.mutate})
	}
	res, err := r.byWorkload(ctx, size, cols)
	if err != nil {
		return nil, err
	}
	for k, v := range vs {
		sps := make([]float64, len(res))
		for i := range res {
			sps[i] = speedup(res[i][0], res[i][k+1])
		}
		row := []string{v.name, fmtF(geomean(sps))}
		if minMax {
			row = append(row, fmtF(slices.Min(sps)), fmtF(slices.Max(sps)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 reproduces Figure 12: memory-hierarchy energy of Host-Only,
// PIM-Only, and Locality-Aware normalized to Ideal-Host.
func (r *Runner) Fig12(ctx context.Context, size workloads.Size) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 12 (%s inputs): memory-hierarchy energy normalized to Ideal-Host", size),
		Header: []string{"workload", "Host-Only", "PIM-Only", "Locality-Aware"},
		Notes:  []string{"paper: Locality-Aware lowest across all sizes; PIM-Only pays 2.2x DRAM on small"},
	}
	res, err := r.byWorkload(ctx, size, fourModes)
	if err != nil {
		return nil, err
	}
	for i, name := range r.Opts.Workloads {
		c := res[i]
		norm := func(x machine.Result) string {
			if c[0].Energy.Total() == 0 {
				return "0"
			}
			return fmtF(x.Energy.Total() / c[0].Energy.Total())
		}
		t.Rows = append(t.Rows, []string{name, norm(c[1]), norm(c[2]), norm(c[3])})
	}
	return t, nil
}
