// Package pimsim_test holds the benchmark harness required by the
// reproduction: one benchmark per table/figure of the paper's evaluation
// (each prints the regenerated rows once, then times the experiment) and
// micro-benchmarks of the simulator's hot structures.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The benchmarks use aggressively scaled inputs so the full suite runs
// in minutes; `cmd/peibench` runs the same experiments at the
// reproduction scale documented in EXPERIMENTS.md.
package pimsim_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/harness"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/sim"
	"pimsim/internal/workloads"
	"pimsim/pei"
)

// benchOptions returns heavily scaled-down options so each figure runs
// in roughly a second. The cache hierarchy is shrunk along with the
// inputs (64 KB L3 against 1/512-scale inputs) so the paper's
// cache-resident-vs-memory-resident crossover still appears; the
// EXPERIMENTS.md reproduction uses cmd/peibench at larger scale.
func benchOptions() harness.Options {
	o := harness.Default()
	o.Scale = 512
	o.OpBudget = 8_000
	o.Pairs = 4
	cfg := config.Scaled()
	cfg.L1 = config.CacheConfig{SizeBytes: 2 << 10, Ways: 4, LatencyCycles: 4, MSHRs: 8}
	cfg.L2 = config.CacheConfig{SizeBytes: 8 << 10, Ways: 8, LatencyCycles: 12, MSHRs: 8}
	cfg.L3 = config.CacheConfig{SizeBytes: 64 << 10, Ways: 16, LatencyCycles: 30, MSHRs: 32}
	cfg.L3Banks = 4
	o.Cfg = cfg
	return o
}

// bctx is the background context shared by the benchmarks.
var bctx = context.Background()

var printOnce sync.Map

// printTables renders tables once per benchmark name.
func printTables(name string, tables ...*harness.Table) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
}

func benchFigure(b *testing.B, name string, run func(r *harness.Runner) ([]*harness.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(benchOptions())
		tables, err := run(r)
		if err != nil {
			b.Fatal(err)
		}
		printTables(name, tables...)
	}
}

func one(t *harness.Table, err error) ([]*harness.Table, error) {
	return []*harness.Table{t}, err
}

func BenchmarkFig2(b *testing.B) {
	// The nine-graph sweep needs extra shrinking to stay within a bench
	// iteration.
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Scale = 4096
		o.OpBudget = 2_000
		r := harness.NewRunner(o)
		t, err := r.Fig2(bctx)
		if err != nil {
			b.Fatal(err)
		}
		printTables("fig2", t)
	}
}

func BenchmarkFig6Small(b *testing.B) {
	benchFigure(b, "fig6s", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig6(bctx, workloads.Small))
	})
}

func BenchmarkFig6Medium(b *testing.B) {
	benchFigure(b, "fig6m", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig6(bctx, workloads.Medium))
	})
}

func BenchmarkFig6Large(b *testing.B) {
	benchFigure(b, "fig6l", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig6(bctx, workloads.Large))
	})
}

func BenchmarkFig7(b *testing.B) {
	benchFigure(b, "fig7", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig7(bctx, workloads.Large))
	})
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Scale = 4096
		o.OpBudget = 2_000
		r := harness.NewRunner(o)
		t, err := r.Fig8(bctx)
		if err != nil {
			b.Fatal(err)
		}
		printTables("fig8", t)
	}
}

func BenchmarkFig9(b *testing.B) {
	benchFigure(b, "fig9", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig9(bctx))
	})
}

func BenchmarkFig10(b *testing.B) {
	benchFigure(b, "fig10", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig10(bctx))
	})
}

func BenchmarkFig11a(b *testing.B) {
	benchFigure(b, "fig11a", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig11a(bctx))
	})
}

func BenchmarkFig11b(b *testing.B) {
	benchFigure(b, "fig11b", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig11b(bctx))
	})
}

func BenchmarkSec76(b *testing.B) {
	benchFigure(b, "sec76", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Sec76(bctx))
	})
}

func BenchmarkFig12(b *testing.B) {
	benchFigure(b, "fig12", func(r *harness.Runner) ([]*harness.Table, error) {
		return one(r.Fig12(bctx, workloads.Small))
	})
}

// ---- Simulator micro-benchmarks ----

// BenchmarkKernelEvents measures raw event throughput of the discrete-
// event kernel: the quantity that bounds overall simulation speed.
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.Schedule(1, tick)
		}
	}
	b.ResetTimer()
	k.Schedule(1, tick)
	k.Run()
}

// BenchmarkKernelEventsHandler is the same event chain driven through
// the allocation-free handler API (ScheduleEvent with a typed handler
// instead of a closure); CI pins its allocs/op at zero.
func BenchmarkKernelEventsHandler(b *testing.B) {
	k := sim.NewKernel()
	h := &chainTick{k: k, limit: int64(b.N)}
	b.ResetTimer()
	k.ScheduleEvent(1, h, sim.EventArg{})
	k.Run()
}

type chainTick struct {
	k     *sim.Kernel
	n     int64
	limit int64
}

func (t *chainTick) OnEvent(sim.EventArg) {
	t.n++
	if t.n < t.limit {
		t.k.ScheduleEvent(1, t, sim.EventArg{})
	}
}

// BenchmarkHierarchyAccess measures one cache access through the full
// coherent hierarchy (mixed hits and misses).
func BenchmarkHierarchyAccess(b *testing.B) {
	m := machine.MustNew(config.Scaled(), pim.HostOnly)
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		a := uint64(i%8192) * 64
		m.Hier.AccessEvent(i%4, a, i%5 == 0, sim.Call(func() { done++ }))
		if i%64 == 63 {
			m.K.Run()
		}
	}
	m.K.Run()
	if done != b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
}

// BenchmarkPEIHostSide and BenchmarkPEIMemorySide measure the end-to-end
// cost of simulating one PEI on each path.
func benchmarkPEI(b *testing.B, mode pim.Mode) {
	m := machine.MustNew(config.Scaled(), mode)
	blocks := b.N
	if blocks > 65536 {
		blocks = 65536
	}
	base := m.Store.Alloc(blocks*64, 64)
	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pim.PEI{Op: pim.OpInc64, Target: base + uint64(i%blocks)*64, Done: func() { done++ }}
		m.PMU.Issue(p)
		if i%32 == 31 {
			m.K.Run()
		}
	}
	m.K.Run()
	if done != b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
}

func BenchmarkPEIHostSide(b *testing.B)   { benchmarkPEI(b, pim.HostOnly) }
func BenchmarkPEIMemorySide(b *testing.B) { benchmarkPEI(b, pim.PIMOnly) }

// BenchmarkPageRankSimulation measures whole-workload simulation speed
// (simulated PageRank per wall-clock second).
func BenchmarkPageRankSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pei.WorkloadParams{Threads: 4, Size: pei.Small, Scale: 512}
		res, err := pei.RunWorkload(pei.ScaledConfig(), pei.LocalityAware, "pr", p, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("pagerank: %d simulated cycles, %d PEIs\n", res.Cycles, res.PEIs)
		}
	}
}

// BenchmarkAblations runs the extension ablations of DESIGN.md §6:
// ignore bit, partial tag width, directory size, dispatch window, and
// interleave granularity.
func BenchmarkAblations(b *testing.B) {
	benchFigure(b, "ablations", func(r *harness.Runner) ([]*harness.Table, error) {
		var tables []*harness.Table
		for _, f := range []func(context.Context) (*harness.Table, error){
			r.AblationIgnoreBit, r.AblationPartialTagWidth,
			r.AblationDirectorySize, r.AblationDispatchWindow,
			r.AblationInterleave, r.AblationPrefetcher,
			r.ComparisonHMC2,
		} {
			t, err := f(bctx)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		}
		return tables, nil
	})
}
