package harness

import (
	"context"
	"fmt"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

// The ablations extend §7.6's sensitivity study to the design choices
// the paper fixes by fiat: the locality monitor's ignore bit and partial
// tag width, the PIM directory size, and the balanced-dispatch averaging
// window. Each reports geometric-mean speedup over the default design
// across the configured workloads (medium inputs, Locality-Aware).

// ablate runs every workload under mutate (in parallel, through the
// pool) and reports GM speedup vs the unmutated design.
func (r *Runner) ablate(ctx context.Context, size workloads.Size, mutate func(*config.Config)) (float64, error) {
	names := r.Opts.Workloads
	sps := make([]float64, len(names))
	err := r.forEach(ctx, len(names), func(ctx context.Context, i int) error {
		name := names[i]
		base, err := r.RunCell(ctx, Cell{name, size, pim.LocalityAware})
		if err != nil {
			return err
		}
		res, err := r.RunWorkload(ctx, name, r.params(size), pim.LocalityAware, mutate, false)
		if err != nil {
			return err
		}
		sps[i] = speedup(base, res)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return geomean(sps), nil
}

// AblationIgnoreBit measures the locality monitor's ignore flag (§4.3):
// disabling it makes the monitor too eager to call a once-reused block
// "high locality".
func (r *Runner) AblationIgnoreBit(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: locality-monitor ignore bit (GM speedup vs default, medium inputs)",
		Header: []string{"variant", "GM_speedup"},
		Notes:  []string{"the paper adds the bit after observing first-hit promotions are too aggressive"},
	}
	g, err := r.ablate(ctx, workloads.Medium, func(c *config.Config) { c.UseIgnoreBit = false })
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"ignore bit on (default)", "1.000"},
		[]string{"ignore bit off", fmtF(g)})
	return t, nil
}

// AblationPartialTagWidth sweeps the monitor's partial tag width. The
// paper picks 10 bits; narrower tags alias more blocks together (false
// "high locality" hits).
func (r *Runner) AblationPartialTagWidth(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: locality-monitor partial tag width (GM speedup vs 10-bit default)",
		Header: []string{"tag_bits", "GM_speedup"},
		Notes:  []string{"paper §7.6: 10-bit partial tags cost only 0.31% vs a full-tag monitor"},
	}
	for _, bits := range []uint{2, 4, 6, 10, 16} {
		bits := bits
		g, err := r.ablate(ctx, workloads.Medium, func(c *config.Config) { c.PartialTagBits = bits })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(bits), fmtF(g)})
	}
	return t, nil
}

// AblationDirectorySize sweeps the PIM directory entry count (default
// 2048 in the paper's machine). Small directories over-serialize
// distinct blocks that XOR-fold to the same entry.
func (r *Runner) AblationDirectorySize(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: PIM directory entries (GM speedup vs default)",
		Header: []string{"entries", "GM_speedup"},
		Notes:  []string{"false positives only serialize — atomicity never breaks (§4.3)"},
	}
	def := r.Opts.Cfg.DirectoryEntries
	for _, n := range []int{8, 32, 128, def, 4 * def} {
		n := n
		g, err := r.ablate(ctx, workloads.Medium, func(c *config.Config) { c.DirectoryEntries = n })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmtF(g)})
	}
	return t, nil
}

// AblationDispatchWindow sweeps balanced dispatch's halving period
// (paper: 10 µs). Too short forgets traffic history; too long reacts
// slowly to phase changes.
func (r *Runner) AblationDispatchWindow(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: balanced-dispatch averaging window (GM speedup vs no balanced dispatch, large inputs)",
		Header: []string{"window_cycles", "GM_speedup"},
	}
	for _, win := range []int64{400, 4000, 40000, 400000} {
		win := win
		g, err := r.ablate(ctx, workloads.Large, func(c *config.Config) {
			c.BalancedDispatch = true
			c.DispatchWindowCyc = win
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(win), fmtF(g)})
	}
	return t, nil
}

// AblationInterleave sweeps the block-to-cube interleave granularity:
// coarser interleaving trades vault parallelism for DRAM row locality.
func (r *Runner) AblationInterleave(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: cube interleave granularity (GM speedup vs per-block default)",
		Header: []string{"blocks_per_cube", "GM_speedup"},
	}
	for _, ilv := range []int{1, 4, 16, 64} {
		ilv := ilv
		g, err := r.ablate(ctx, workloads.Large, func(c *config.Config) { c.InterleaveBlocks = ilv })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(ilv), fmtF(g)})
	}
	return t, nil
}

// AblationPrefetcher gives the host a next-N-line L2 prefetcher and
// measures how much it narrows the PIM advantage (large inputs,
// Locality-Aware; the PEI hardware is unchanged).
func (r *Runner) AblationPrefetcher(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: host L2 next-N-line prefetcher (GM speedup vs no prefetcher, large inputs)",
		Header: []string{"depth", "GM_speedup"},
	}
	for _, depth := range []int{0, 1, 2, 4} {
		depth := depth
		g, err := r.ablate(ctx, workloads.Large, func(c *config.Config) { c.PrefetchDepth = depth })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(depth), fmtF(g)})
	}
	return t, nil
}

// ComparisonHMC2 compares the paper's locality-aware PEIs against
// HMC 2.0-style native atomics (footnote 1): always-in-memory execution
// with no PIM directory and no cache interoperability. The delta is the
// paper's contribution isolated from the raw in-memory-compute benefit.
func (r *Runner) ComparisonHMC2(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Comparison: HMC 2.0-style atomics vs PEI (speedup over Host-Only, large inputs)",
		Header: []string{"workload", "HMC2-atomics", "PIM-Only(PEI)", "Locality-Aware(PEI)"},
		Notes:  []string{"HMC2 atomics skip the directory and coherence: fast but fence-less and uncacheable"},
	}
	names := r.Opts.Workloads
	type res struct{ host, h2, mem, la machine.Result }
	out := make([]res, len(names))
	err := r.forEach(ctx, len(names), func(ctx context.Context, i int) error {
		name := names[i]
		host, err := r.RunCell(ctx, Cell{name, workloads.Large, pim.HostOnly})
		if err != nil {
			return err
		}
		h2, err := r.RunWorkload(ctx, name, r.params(workloads.Large), pim.PIMOnly,
			func(c *config.Config) { c.HMC2AtomicsMode = true }, false)
		if err != nil {
			return err
		}
		p, err := r.RunCell(ctx, Cell{name, workloads.Large, pim.PIMOnly})
		if err != nil {
			return err
		}
		l, err := r.RunCell(ctx, Cell{name, workloads.Large, pim.LocalityAware})
		if err != nil {
			return err
		}
		out[i] = res{host, h2, p, l}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var h2s, ps, ls []float64
	for i, name := range names {
		c := out[i]
		s2, sp, sl := speedup(c.host, c.h2), speedup(c.host, c.mem), speedup(c.host, c.la)
		h2s, ps, ls = append(h2s, s2), append(ps, sp), append(ls, sl)
		t.Rows = append(t.Rows, []string{name, fmtF(s2), fmtF(sp), fmtF(sl)})
	}
	t.Rows = append(t.Rows, []string{"GM", fmtF(geomean(h2s)), fmtF(geomean(ps)), fmtF(geomean(ls))})
	return t, nil
}
