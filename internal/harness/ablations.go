package harness

import (
	"context"

	"pimsim/internal/config"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

// The ablations extend §7.6's sensitivity study to the design choices
// the paper fixes by fiat: the locality monitor's ignore bit and partial
// tag width, the PIM directory size, and the balanced-dispatch averaging
// window. Each is a sensitivity table: geometric-mean speedup over the
// default design across the configured workloads (Locality-Aware).

// AblationIgnoreBit measures the locality monitor's ignore flag (§4.3):
// disabling it makes the monitor too eager to call a once-reused block
// "high locality".
func (r *Runner) AblationIgnoreBit(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: locality-monitor ignore bit (GM speedup vs default, medium inputs)",
		Header: []string{"variant", "GM_speedup"},
		Notes:  []string{"the paper adds the bit after observing first-hit promotions are too aggressive"},
	}
	return r.sensitivity(ctx, t, workloads.Medium, nil, []variant{
		{"ignore bit on (default)", nil},
		{"ignore bit off", func(c *config.Config) { c.UseIgnoreBit = false }},
	}, false)
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
	return r.sensitivity(ctx, t, workloads.Medium, nil,
		sweep([]uint{2, 4, 6, 10, 16}, func(c *config.Config, bits uint) { c.PartialTagBits = bits }), false)
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
	return r.sensitivity(ctx, t, workloads.Medium, nil,
		sweep([]int{8, 32, 128, def, 4 * def}, func(c *config.Config, n int) { c.DirectoryEntries = n }), false)
}

// AblationDispatchWindow sweeps balanced dispatch's halving period
// (paper: 10 µs). Too short forgets traffic history; too long reacts
// slowly to phase changes.
func (r *Runner) AblationDispatchWindow(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: balanced-dispatch averaging window (GM speedup vs no balanced dispatch, large inputs)",
		Header: []string{"window_cycles", "GM_speedup"},
	}
	return r.sensitivity(ctx, t, workloads.Large, nil,
		sweep([]int64{400, 4000, 40000, 400000}, func(c *config.Config, win int64) {
			c.BalancedDispatch = true
			c.DispatchWindowCyc = win
		}), false)
}

// AblationInterleave sweeps the block-to-cube interleave granularity:
// coarser interleaving trades vault parallelism for DRAM row locality.
func (r *Runner) AblationInterleave(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: cube interleave granularity (GM speedup vs per-block default)",
		Header: []string{"blocks_per_cube", "GM_speedup"},
	}
	return r.sensitivity(ctx, t, workloads.Large, nil,
		sweep([]int{1, 4, 16, 64}, func(c *config.Config, ilv int) { c.InterleaveBlocks = ilv }), false)
}

// AblationPrefetcher gives the host a next-N-line L2 prefetcher and
// measures how much it narrows the PIM advantage (large inputs,
// Locality-Aware; the PEI hardware is unchanged).
func (r *Runner) AblationPrefetcher(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:  "Ablation: host L2 next-N-line prefetcher (GM speedup vs no prefetcher, large inputs)",
		Header: []string{"depth", "GM_speedup"},
	}
	return r.sensitivity(ctx, t, workloads.Large, nil,
		sweep([]int{0, 1, 2, 4}, func(c *config.Config, depth int) { c.PrefetchDepth = depth }), false)
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
	hmc2 := func(c *config.Config) { c.HMC2AtomicsMode = true }
	cols := []Cell{{Mode: pim.HostOnly}, {Mode: pim.PIMOnly, Mutate: hmc2}, {Mode: pim.PIMOnly}, {Mode: pim.LocalityAware}}
	res, err := r.byWorkload(ctx, workloads.Large, cols)
	if err != nil {
		return nil, err
	}
	gm := make([][]float64, len(cols))
	for i, name := range r.Opts.Workloads {
		row := []string{name}
		for j := 1; j < len(cols); j++ {
			s := speedup(res[i][0], res[i][j])
			gm[j] = append(gm[j], s)
			row = append(row, fmtF(s))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{"GM", fmtF(geomean(gm[1])), fmtF(geomean(gm[2])), fmtF(geomean(gm[3]))})
	return t, nil
}
