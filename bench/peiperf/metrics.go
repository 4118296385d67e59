package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root declares the same set; the smoke test keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is an absolute allowance -compare grants besides Bound, so
	// millisecond-scale values do not fail on jitter.
	Floor float64 `json:"-"`
}

// endToEnd are the numbers a user of the simulator sees, measured on
// untraced reps only. Bound is the share of the parent's median by which
// a metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25, 0.05},
	{"setup_s", "s", "lower", 0.25, 0.05},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.25, 0},
	{"peak_rss_mb", "MB", "lower", 0.20, 0},
}

// perLayer are measured on traced reps. Simulated counts are exact and
// must repeat bit-for-bit; a speed-only change leaves them alone.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0, 0},
	{"sim.events_per_s", "1/s", "higher", 0, 0},
	{"sim.cpu_share", "frac", "lower", 0, 0},
	{"cpu.retired", "count", "lower", 0, 0},
	{"cpu.cpu_share", "frac", "lower", 0, 0},
	{"cache.l1_misses", "count", "lower", 0, 0},
	{"cache.l3_misses", "count", "lower", 0, 0},
	{"cache.coh_invalidations", "count", "lower", 0, 0},
	{"cache.cpu_share", "frac", "lower", 0, 0},
	{"pim.peis", "count", "lower", 0, 0},
	{"pim.mem_frac", "frac", "higher", 0, 0},
	{"pim.dir_blocked", "count", "lower", 0, 0},
	{"pim.cpu_share", "frac", "lower", 0, 0},
	{"hmc.offchip_bytes", "bytes", "lower", 0, 0},
	{"hmc.packets", "count", "lower", 0, 0},
	{"hmc.cpu_share", "frac", "lower", 0, 0},
	{"dram.accesses", "count", "lower", 0, 0},
	{"dram.row_conflicts", "count", "lower", 0, 0},
	{"dram.cpu_share", "frac", "lower", 0, 0},
	{"workloads.setup_s", "s", "lower", 0, 0},
	{"workloads.verify_s", "s", "lower", 0, 0},
	{"workloads.cpu_share", "frac", "lower", 0, 0},
	{"graph.cpu_share", "frac", "lower", 0, 0},
	{"machine.new_s", "s", "lower", 0, 0},
	{"machine.run_s", "s", "lower", 0, 0},
	{"harness.cells", "count", "lower", 0, 0},
	{"harness.cell_p50_s", "s", "lower", 0, 0},
	{"harness.cell_p90_s", "s", "lower", 0, 0},
	{"harness.idle_core_s", "s", "lower", 0, 0},
	{"snap.bytes_written", "bytes", "lower", 0, 0},
	{"snap.hit_frac", "frac", "higher", 0, 0},
	{"snap.cycles_skipped_frac", "frac", "higher", 0, 0},
	{"snap.warm_speedup", "x", "higher", 0, 0},
	{"go.alloc_mb", "MB", "lower", 0, 0},
	{"go.mallocs", "count", "lower", 0, 0},
	{"go.gc_cycles", "count", "lower", 0, 0},
	{"go.gc_cpu_frac", "frac", "lower", 0, 0},
	{"go.cpu_s", "s", "lower", 0, 0},
	{"runtime.cpu_share", "frac", "lower", 0, 0},
	{"host.calib_ms", "ms", "lower", 0, 0},
	{"trace.overhead_frac", "frac", "lower", 0, 0},
}

// stat summarizes one metric over reps. Quartiles follow Python's
// statistics.quantiles(values, n=4), the default "exclusive" method.
type stat struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newStat(unit string, values []float64) stat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	st := stat{Unit: unit, Values: values}
	st.Q1, st.Median, st.Q3 = quartiles(s)
	return st
}

// quartiles returns the three quartile cut points of sorted xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
