package main

import (
	"context"
	"fmt"

	"pimsim/internal/config"
	"pimsim/internal/harness"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

// defaultSeed is the -seed default.
const defaultSeed = 1

// cell is one simulation a cell-driven workload runs itself, so the
// benchmark can time each layer's public entry point around the call.
type cell struct {
	cfg    *config.Config
	name   string
	params workloads.Params
	mode   pim.Mode
	// verify marks a run to completion, where Workload.Verify is
	// meaningful (an op budget truncates the run).
	verify bool
}

// figure is one harness entry point a harness workload calls.
type figure struct {
	name string
	run  func(context.Context, *harness.Runner) ([]*harness.Table, error)
}

// workload is one set of inputs the benchmark runs. Exactly one of cells
// and figures is set. Sizes are chosen so one rep takes a few seconds on
// a 2-vCPU host; tiny shrinks them for the smoke test.
type workload struct {
	name string
	// cells lists the simulations of a cell-driven workload: one cell is
	// outstanding at a time.
	cells func(seed int64, tiny bool) []cell
	// opts and figures describe a harness workload: the harness pool keeps
	// GOMAXPROCS cells outstanding. Harness workloads do not draw from the
	// seed (see reproduce).
	opts    func(tiny bool) harness.Options
	figures []figure
	// warm runs the figures twice on one fresh snapshot directory: a cold
	// runner that writes phase blobs, then a warm one that resumes from them.
	warm bool
}

var benchWorkloads = []*workload{
	{
		// Small inputs fit the scaled 256 KB L3, so PEIs stay host-side:
		// cache, cpu and the host PCU do the work while hmc and dram idle.
		// hj's probe chains, most of the rep, take about 1.7x longer at odd
		// seeds than at even ones, so every rep runs seeds s and s+1.
		name: "host-resident",
		cells: func(seed int64, tiny bool) []cell {
			var cells []cell
			for _, s := range []int64{seed, seed + 1} {
				for _, name := range workloads.Names {
					for _, mode := range []pim.Mode{pim.HostOnly, pim.LocalityAware} {
						cells = append(cells, newCell(config.Scaled(), name, workloads.Small, pick(tiny, 4096, 256), 0, s, mode))
					}
				}
			}
			return cells
		},
	},
	{
		// Large inputs under PIM-Only send every PEI over the link to a
		// vault PCU: the pim layer used the other way, with hmc and dram
		// doing the work. hg's write-only bins sit beside pr's
		// read-modify-write.
		name: "memory-bound",
		cells: func(seed int64, tiny bool) []cell {
			var cells []cell
			for _, name := range []string{"pr", "bfs", "hg", "sc", "svm"} {
				cells = append(cells, newCell(config.Scaled(), name, workloads.Large, pick(tiny, 8192, 256), 0, seed, pim.PIMOnly))
			}
			return cells
		},
	},
	{
		// The Table 2 machine (16 cores, 8x16 vaults) on large graphs under
		// an op budget: input generation dominates, so setup_s and
		// peak_rss_mb move here.
		name: "full-machine",
		cells: func(seed int64, tiny bool) []cell {
			var cells []cell
			for _, name := range []string{"pr", "bfs", "sp"} {
				cells = append(cells, newCell(config.Baseline(), name, workloads.Large, pick(tiny, 1024, 16), pick(tiny, 500, 20000), seed, pim.LocalityAware))
			}
			return cells
		},
	},
	{
		// What users run, scaled down: every paper figure (ablations
		// excluded) on one harness runner. About 330 short cells keep the
		// worker pool busy, Figures 7 and 12 come from the cell cache, and
		// simulation takes about three quarters of the CPU. Figure 9 keeps
		// the harness's default mix seed: its mixes set the peak RSS, which
		// differed by up to 35% between mix seeds.
		name: "reproduce",
		opts: func(tiny bool) harness.Options {
			o := harnessOpts(tiny)
			o.Pairs = pick(tiny, 2, 8)
			return o
		},
		figures: []figure{
			{name: "fig2", run: one((*harness.Runner).Fig2)},
			{name: "fig6", run: bySize((*harness.Runner).Fig6)},
			{name: "fig7", run: bySize((*harness.Runner).Fig7)},
			{name: "fig8", run: one((*harness.Runner).Fig8)},
			{name: "fig9", run: one((*harness.Runner).Fig9)},
			{name: "fig10", run: one((*harness.Runner).Fig10)},
			{name: "fig11a", run: one((*harness.Runner).Fig11a)},
			{name: "fig11b", run: one((*harness.Runner).Fig11b)},
			{name: "sec7.6", run: one((*harness.Runner).Sec76)},
			{name: "fig12", run: bySize((*harness.Runner).Fig12)},
		},
	},
	{
		// Figure 6 run cold and then warm on one snapshot directory: the
		// only workload where snap does the work, writing blobs and then
		// restoring them.
		name: "warm-rerun",
		opts: harnessOpts,
		figures: []figure{
			{name: "fig6", run: bySize((*harness.Runner).Fig6)},
		},
		warm: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func newCell(cfg *config.Config, name string, size workloads.Size, scale, budget int, seed int64, mode pim.Mode) cell {
	p := workloads.Params{Threads: cfg.Cores, Size: size, Scale: scale, OpBudget: int64(budget), Seed: seed}
	return cell{cfg: cfg, name: name, params: p, mode: mode, verify: budget == 0}
}

func harnessOpts(tiny bool) harness.Options {
	o := harness.Default()
	o.Scale = pick(tiny, 8192, 1024)
	o.OpBudget = pick[int64](tiny, 500, 4000)
	return o
}

// pick returns small for the smoke test's tiny inputs, else full.
func pick[T any](tiny bool, small, full T) T {
	if tiny {
		return small
	}
	return full
}

func one(f func(*harness.Runner, context.Context) (*harness.Table, error)) func(context.Context, *harness.Runner) ([]*harness.Table, error) {
	return func(ctx context.Context, r *harness.Runner) ([]*harness.Table, error) {
		t, err := f(r, ctx)
		if err != nil {
			return nil, err
		}
		return []*harness.Table{t}, nil
	}
}

// bySize runs a per-size figure over the three Table 3 input sizes.
func bySize(f func(*harness.Runner, context.Context, workloads.Size) (*harness.Table, error)) func(context.Context, *harness.Runner) ([]*harness.Table, error) {
	return func(ctx context.Context, r *harness.Runner) ([]*harness.Table, error) {
		var out []*harness.Table
		for _, size := range []workloads.Size{workloads.Small, workloads.Medium, workloads.Large} {
			t, err := f(r, ctx, size)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}
}
