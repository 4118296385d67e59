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

// Every figure fans its independent simulations out through the runner's
// worker pool (forEach) and collects them into index-addressed slices,
// then assembles rows serially in declared order — so rendered tables
// are byte-identical at any Options.Parallelism.

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
	specs := graph.Figure2Graphs
	type pair struct{ host, mem machine.Result }
	out := make([]pair, len(specs))
	err := r.forEach(ctx, len(specs), func(ctx context.Context, i int) error {
		spec := specs[i]
		r.logf("fig2: %s", spec.Name)
		host, err := r.runGraphWorkload(ctx, "pr", spec, pim.IdealHost)
		if err != nil {
			return err
		}
		mem, err := r.runGraphWorkload(ctx, "pr", spec, pim.PIMOnly)
		if err != nil {
			return err
		}
		out[i] = pair{host, mem}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmt.Sprint(out[i].host.Cycles),
			fmt.Sprint(out[i].mem.Cycles),
			fmtF(speedup(out[i].host, out[i].mem)),
		})
	}
	return t, nil
}

// fourModes holds one workload's results under the four system
// configurations of §7.
type fourModes struct {
	ideal, host, mem, la machine.Result
}

// runFourModes simulates every configured workload under all four modes
// at the given size, fanning out through the pool. Figures 6, 7, and 12
// share these cells through the runner's memo.
func (r *Runner) runFourModes(ctx context.Context, tag string, size workloads.Size) ([]fourModes, error) {
	out := make([]fourModes, len(r.Opts.Workloads))
	err := r.forEach(ctx, len(out), func(ctx context.Context, i int) error {
		name := r.Opts.Workloads[i]
		r.logf("%s/%s: %s", tag, size, name)
		ideal, err := r.RunCell(ctx, Cell{name, size, pim.IdealHost})
		if err != nil {
			return err
		}
		h, err := r.RunCell(ctx, Cell{name, size, pim.HostOnly})
		if err != nil {
			return err
		}
		p, err := r.RunCell(ctx, Cell{name, size, pim.PIMOnly})
		if err != nil {
			return err
		}
		l, err := r.RunCell(ctx, Cell{name, size, pim.LocalityAware})
		if err != nil {
			return err
		}
		out[i] = fourModes{ideal, h, p, l}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
	cells, err := r.runFourModes(ctx, "fig6", size)
	if err != nil {
		return nil, err
	}
	var host, mem, la []float64
	for i, name := range r.Opts.Workloads {
		c := cells[i]
		sh, sp, sl := speedup(c.ideal, c.host), speedup(c.ideal, c.mem), speedup(c.ideal, c.la)
		host = append(host, sh)
		mem = append(mem, sp)
		la = append(la, sl)
		t.Rows = append(t.Rows, []string{name, fmtF(sh), fmtF(sp), fmtF(sl), fmtPct(c.la.PIMFraction())})
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
	norm := func(base, x machine.Result) float64 {
		if base.OffchipBytes == 0 {
			return 0
		}
		return float64(x.OffchipBytes) / float64(base.OffchipBytes)
	}
	cells, err := r.runFourModes(ctx, "fig7", size)
	if err != nil {
		return nil, err
	}
	for i, name := range r.Opts.Workloads {
		c := cells[i]
		t.Rows = append(t.Rows, []string{name, fmtF(norm(c.ideal, c.host)), fmtF(norm(c.ideal, c.mem)), fmtF(norm(c.ideal, c.la))})
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
	specs := graph.Figure2Graphs
	type triple struct{ host, mem, la machine.Result }
	out := make([]triple, len(specs))
	err := r.forEach(ctx, len(specs), func(ctx context.Context, i int) error {
		spec := specs[i]
		r.logf("fig8: %s", spec.Name)
		host, err := r.runGraphWorkload(ctx, "pr", spec, pim.HostOnly)
		if err != nil {
			return err
		}
		mem, err := r.runGraphWorkload(ctx, "pr", spec, pim.PIMOnly)
		if err != nil {
			return err
		}
		la, err := r.runGraphWorkload(ctx, "pr", spec, pim.LocalityAware)
		if err != nil {
			return err
		}
		out[i] = triple{host, mem, la}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmtF(speedup(out[i].host, out[i].mem)),
			fmtF(speedup(out[i].host, out[i].la)),
			fmtPct(out[i].la.PIMFraction()),
		})
	}
	return t, nil
}

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
	// and therefore the mix list — is identical at any parallelism. The
	// seed lives in the run configuration (Options.MixSeed), not here.
	rng := rand.New(rand.NewSource(r.Opts.MixSeed))
	type mixSpec struct {
		w1, w2 string
		s1, s2 workloads.Size
		mix    string
	}
	mixes := make([]mixSpec, r.Opts.Pairs)
	for p := range mixes {
		m := mixSpec{
			w1: r.Opts.Workloads[rng.Intn(len(r.Opts.Workloads))],
			w2: r.Opts.Workloads[rng.Intn(len(r.Opts.Workloads))],
		}
		// Preserve the seed's historical draw order: w1, w2, s1, s2.
		m.s1 = sizes[rng.Intn(len(sizes))]
		m.s2 = sizes[rng.Intn(len(sizes))]
		m.mix = fmt.Sprintf("%s-%s+%s-%s", m.w1, m.s1, m.w2, m.s2)
		mixes[p] = m
	}
	type row struct {
		mix  string
		pimS float64
		laS  float64
	}
	rows := make([]row, len(mixes))
	err := r.forEach(ctx, len(mixes), func(ctx context.Context, p int) error {
		m := mixes[p]
		r.logf("fig9 %d/%d: %s", p+1, r.Opts.Pairs, m.mix)
		run := func(mode pim.Mode) (machine.Result, error) {
			return r.runPair(ctx, m.w1, m.s1, m.w2, m.s2, int64(p), mode)
		}
		host, err := run(pim.HostOnly)
		if err != nil {
			return err
		}
		mem, err := run(pim.PIMOnly)
		if err != nil {
			return err
		}
		la, err := run(pim.LocalityAware)
		if err != nil {
			return err
		}
		rows[p] = row{mix: m.mix, pimS: mem.IPC() / host.IPC(), laS: la.IPC() / host.IPC()}
		return nil
	})
	if err != nil {
		return nil, err
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

// runPair runs two workloads concurrently, each on half the cores.
func (r *Runner) runPair(ctx context.Context, w1 string, s1 workloads.Size, w2 string, s2 workloads.Size, seed int64, mode pim.Mode) (machine.Result, error) {
	if err := ctx.Err(); err != nil {
		return machine.Result{}, err
	}
	r.simulations.Add(1)
	cfg := r.Opts.Cfg
	half := cfg.Cores / 2
	if half == 0 {
		half = 1
	}
	p1 := r.params(s1)
	p1.Threads = half
	p1.Seed = seed*2 + 1
	p2 := r.params(s2)
	p2.Threads = cfg.Cores - half
	p2.Seed = seed*2 + 2
	a, err := workloads.New(w1, p1)
	if err != nil {
		return machine.Result{}, err
	}
	b, err := workloads.New(w2, p2)
	if err != nil {
		return machine.Result{}, err
	}
	m, err := machine.New(cfg, mode)
	if err != nil {
		return machine.Result{}, err
	}
	return m.RunContext(ctx, append(a.Streams(m), b.Streams(m)...))
}

// Fig10 reproduces Figure 10: speedup of balanced dispatch (§7.4) on
// top of Locality-Aware, large inputs.
func (r *Runner) Fig10(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Figure 10: balanced dispatch speedup over plain Locality-Aware (large inputs)",
		Header: []string{"workload", "LA_cycles", "LA+BD_cycles", "speedup"},
		Notes:  []string{"paper: up to +25%, biggest on SC/SVM (read-dominated, large inputs)"},
	}
	type pair struct{ la, bd machine.Result }
	out := make([]pair, len(r.Opts.Workloads))
	err := r.forEach(ctx, len(out), func(ctx context.Context, i int) error {
		name := r.Opts.Workloads[i]
		r.logf("fig10: %s", name)
		la, err := r.RunCell(ctx, Cell{name, workloads.Large, pim.LocalityAware})
		if err != nil {
			return err
		}
		bd, err := r.RunWorkload(ctx, name, r.params(workloads.Large), pim.LocalityAware,
			func(c *config.Config) { c.BalancedDispatch = true }, false)
		if err != nil {
			return err
		}
		out[i] = pair{la, bd}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []float64
	for i, name := range r.Opts.Workloads {
		s := speedup(out[i].la, out[i].bd)
		all = append(all, s)
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(out[i].la.Cycles), fmt.Sprint(out[i].bd.Cycles), fmtF(s)})
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

// pcuSweep runs the Locality-Aware medium cells at every value and
// reports speedup over the column at def, which values must include.
func (r *Runner) pcuSweep(ctx context.Context, title string, values []int, set func(*config.Config, int), def int) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"value", "GM_speedup", "min", "max"},
		Notes:  []string{"paper: 4-entry buffers buy >30% over 1-entry; width beyond 1 is negligible"},
	}
	size := workloads.Medium
	names := r.Opts.Workloads
	// One flat (value × workload) grid keeps the pool saturated across
	// sweep points.
	grid := make([]machine.Result, len(values)*len(names))
	err := r.forEach(ctx, len(grid), func(ctx context.Context, j int) error {
		v, name := values[j/len(names)], names[j%len(names)]
		r.logf("pcu sweep: value %d, %s", v, name)
		res, err := r.RunWorkload(ctx, name, r.params(size), pim.LocalityAware,
			func(c *config.Config) { set(c, v) }, false)
		if err != nil {
			return err
		}
		grid[j] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := grid[slices.Index(values, def)*len(names):]
	for vi, v := range values {
		var sps []float64
		minS, maxS := 0.0, 0.0
		for i := range names {
			s := speedup(base[i], grid[vi*len(names)+i])
			sps = append(sps, s)
			if i == 0 || s < minS {
				minS = s
			}
			if i == 0 || s > maxS {
				maxS = s
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(v), fmtF(geomean(sps)), fmtF(minS), fmtF(maxS)})
	}
	return t, nil
}

// Sec76 reproduces §7.6: the performance cost of the real PMU versus
// idealized directory and locality-monitor structures.
func (r *Runner) Sec76(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Section 7.6: PMU idealization (speedup over real PMU, geometric mean)",
		Header: []string{"variant", "GM_speedup"},
		Notes:  []string{"paper: ideal directory +0.13%, ideal monitor +0.31% - both negligible"},
	}
	size := workloads.Medium
	variants := []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"ideal directory", func(c *config.Config) { c.IdealDirectory = true; c.DirectoryLatency = 0 }},
		{"ideal monitor", func(c *config.Config) { c.IdealMonitor = true; c.MonitorLatency = 0 }},
		{"both ideal", func(c *config.Config) {
			c.IdealDirectory = true
			c.DirectoryLatency = 0
			c.IdealMonitor = true
			c.MonitorLatency = 0
		}},
	}
	names := r.Opts.Workloads
	sps := make([]float64, len(variants)*len(names))
	err := r.forEach(ctx, len(sps), func(ctx context.Context, j int) error {
		v, name := variants[j/len(names)], names[j%len(names)]
		baseRes, err := r.RunCell(ctx, Cell{name, size, pim.LocalityAware})
		if err != nil {
			return err
		}
		res, err := r.RunWorkload(ctx, name, r.params(size), pim.LocalityAware, v.mutate, false)
		if err != nil {
			return err
		}
		sps[j] = speedup(baseRes, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		t.Rows = append(t.Rows, []string{v.name, fmtF(geomean(sps[vi*len(names) : (vi+1)*len(names)]))})
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
	cells, err := r.runFourModes(ctx, "fig12", size)
	if err != nil {
		return nil, err
	}
	for i, name := range r.Opts.Workloads {
		c := cells[i]
		norm := func(x machine.Result) string {
			if c.ideal.Energy.Total() == 0 {
				return "0"
			}
			return fmtF(x.Energy.Total() / c.ideal.Energy.Total())
		}
		t.Rows = append(t.Rows, []string{name, norm(c.host), norm(c.mem), norm(c.la)})
	}
	return t, nil
}
