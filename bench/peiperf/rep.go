package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimsim/internal/cpu"
	"pimsim/internal/harness"
	"pimsim/internal/machine"
	"pimsim/internal/workloads"
)

// repResult is what one repetition of a workload reports.
type repResult struct {
	// Traced marks a rep run under the CPU profiler.
	Traced bool `json:"traced"`
	// Metrics holds every number the rep measured, by metric name.
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	// Digest hashes every simulated output (results or rendered tables);
	// reps of one workload and seed must agree on it.
	Digest string `json:"digest"`
	Spans  []span `json:"spans"`
	// Tables holds the rendered tables per figure (harness workloads).
	Tables map[string]string `json:"-"`
}

// repConfig says how to run one rep.
type repConfig struct {
	seed int64
	tiny bool
	// ref maps figure name to its reference tables; nil skips the check.
	ref map[string]string
	// scratch is a directory the rep may use (warm-rerun's snapshot store).
	scratch string
	// traceID prefixes span trace IDs ("workload/rN").
	traceID string
	traced  bool
}

// rep is the state of one repetition in progress.
type rep struct {
	cfg    repConfig
	rec    *recorder
	res    *repResult
	digest hash.Hash
	// cycles is the simulated cycle count (skipped cycles excluded).
	cycles atomic.Int64
	counts map[string]float64
	// pimMem counts PEIs executed memory-side, for pim.mem_frac.
	pimMem float64
}

// runRep executes one repetition of w in this process and measures it.
func runRep(ctx context.Context, w *workload, cfg repConfig) *repResult {
	x := &rep{
		cfg:    cfg,
		res:    &repResult{Traced: cfg.traced, Metrics: map[string]float64{}, Tables: map[string]string{}},
		digest: sha256.New(),
		counts: map[string]float64{},
	}
	calib := calibrate()
	var prof bytes.Buffer
	if cfg.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			x.fail(1, err)
			return x.res
		}
	}
	rt0 := readRuntime()
	x.rec = newRecorder()
	pprof.Do(ctx, pprof.Labels("workload", w.name), func(ctx context.Context) {
		if w.cells != nil {
			x.runCells(ctx, w.cells(cfg.seed, cfg.tiny))
		} else {
			x.runHarness(ctx, w)
		}
	})
	wall := x.rec.now()
	rt1 := readRuntime()
	if cfg.traced {
		pprof.StopCPUProfile()
		if err := x.attribute(prof.Bytes(), w.cells == nil); err != nil {
			x.fail(1, err)
		}
	}

	m := x.res.Metrics
	for k, v := range x.counts {
		m[k] = v
	}
	spans := x.rec.spans
	m["wall_s"] = wall
	m["sim_mcycles_per_s"] = float64(x.cycles.Load()) / wall / 1e6
	if w.cells != nil {
		m["workloads.setup_s"] = total(spans, "workloads.new", "workloads.streams")
		m["machine.new_s"] = total(spans, "machine.new")
		m["machine.run_s"] = total(spans, "machine.run")
		if run := m["machine.run_s"]; run > 0 {
			m["sim.events_per_s"] = m["sim.events"] / run
		}
	}
	// The benchmark's own set-up inside the rep: building inputs and
	// machines for the cells it drives. The parent adds the child's
	// start-up time.
	m["setup_s"] = total(spans, "workloads.new", "workloads.streams", "machine.new")
	m["workloads.verify_s"] = total(spans, "workloads.verify")
	x.cellMetrics(spans)
	if m["pim.peis"] > 0 {
		m["pim.mem_frac"] = x.pimMem / m["pim.peis"]
	}
	m["go.alloc_mb"] = (rt1[0] - rt0[0]) / (1 << 20)
	m["go.mallocs"] = rt1[1] - rt0[1]
	m["go.gc_cycles"] = rt1[2] - rt0[2]
	if busy := (rt1[3] - rt0[3]) + (rt1[4] - rt0[4]); busy > 0 {
		m["go.gc_cpu_frac"] = (rt1[3] - rt0[3]) / busy
	}
	m["host.calib_ms"] = calib
	x.res.Digest = hex.EncodeToString(x.digest.Sum(nil))
	x.res.Spans = spans
	return x.res
}

// fail records n failed cells.
func (x *rep) fail(n int, err error) {
	x.res.Failed += n
	x.res.Errors = append(x.res.Errors, err.Error())
}

// runCells drives each cell itself, one at a time, timing every layer's
// entry point.
func (x *rep) runCells(ctx context.Context, cells []cell) {
	root := x.rec.begin("cells", x.cfg.traceID, 0)
	defer x.rec.end(root)
	for i, c := range cells {
		x.res.Attempted++
		if err := x.runCell(ctx, root, fmt.Sprintf("%s/cell%d", x.cfg.traceID, i), c); err != nil {
			x.fail(1, fmt.Errorf("%s: %w", c, err))
		}
	}
}

func (c cell) String() string { return fmt.Sprintf("%s/%s/%s", c.name, c.params.Size, c.mode) }

func (x *rep) runCell(ctx context.Context, parent int, trace string, c cell) error {
	id := x.rec.begin("cell", trace, parent)
	defer x.rec.end(id)
	var (
		w       workloads.Workload
		m       *machine.Machine
		streams []cpu.Stream
		res     machine.Result
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"workloads.new", func() (err error) { w, err = workloads.New(c.name, c.params); return err }},
		{"machine.new", func() (err error) { m, err = machine.New(c.cfg, c.mode); return err }},
		{"workloads.streams", func() error { streams = w.Streams(m); return nil }},
		{"machine.run", func() (err error) { res, err = m.RunContext(ctx, streams); return err }},
		{"workloads.verify", func() error {
			writeResult(x.digest, c.String(), res)
			if c.verify {
				return w.Verify(m)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := x.rec.timed(s.name, trace, id, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	x.cycles.Add(int64(res.Cycles))
	x.pimMem += float64(res.PEIMem)
	st := res.Stats
	for k, v := range map[string]int64{
		"sim.events":              int64(m.K.Executed),
		"cpu.retired":             res.Retired,
		"cache.l1_misses":         st["l1.misses"],
		"cache.l3_misses":         st["l3.misses"],
		"cache.coh_invalidations": st["coh.invalidations"],
		"pim.peis":                res.PEIs,
		"pim.dir_blocked":         st["pmu.dir_blocked"],
		"hmc.offchip_bytes":       res.OffchipBytes,
		"hmc.packets":             st["offchip.req.packets"] + st["offchip.res.packets"],
		"dram.accesses":           res.DRAMAccesses,
		"dram.row_conflicts":      st["dram.row_conflict"],
	} {
		x.counts[k] += float64(v)
	}
	return nil
}

// writeResult hashes every simulated number of one cell's result.
func writeResult(h hash.Hash, name string, r machine.Result) {
	fmt.Fprintf(h, "%s cycles=%d retired=%d peis=%d/%d/%d offchip=%d dram=%d energy=%v\n",
		name, r.Cycles, r.Retired, r.PEIs, r.PEIHost, r.PEIMem, r.OffchipBytes, r.DRAMAccesses, r.Energy)
	keys := make([]string, 0, len(r.Stats))
	for k := range r.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, r.Stats[k])
	}
}

// runHarness runs the figures through harness runners; a warm workload
// runs them cold and then warm on one fresh snapshot directory.
func (x *rep) runHarness(ctx context.Context, w *workload) {
	opts := w.opts(x.cfg.tiny)
	if !w.warm {
		x.runFigures(ctx, "harness", opts, w.figures)
		return
	}
	opts.SnapshotDir = filepath.Join(x.cfg.scratch, "snap")
	defer os.RemoveAll(opts.SnapshotDir)
	t0 := x.rec.now()
	cold := x.runFigures(ctx, "snap.cold", opts, w.figures)
	t1 := x.rec.now()
	warm := x.runFigures(ctx, "snap.warm", opts, w.figures)
	t2 := x.rec.now()
	cr, wr := cold.SnapshotReport(), warm.SnapshotReport()
	x.counts["snap.bytes_written"] = float64(cr.Store.BytesWritten + wr.Store.BytesWritten)
	if n := wr.Store.Hits + wr.Store.Misses; n > 0 {
		x.counts["snap.hit_frac"] = float64(wr.Store.Hits) / float64(n)
	}
	if n := wr.CyclesSimulated + wr.CyclesSkipped; n > 0 {
		x.counts["snap.cycles_skipped_frac"] = float64(wr.CyclesSkipped) / float64(n)
	}
	if t2 > t1 {
		x.counts["snap.warm_speedup"] = (t1 - t0) / (t2 - t1)
	}
}

// runFigures runs figs on one runner under a span named pass. Progress
// events become cell spans under the running figure's span.
func (x *rep) runFigures(ctx context.Context, pass string, opts harness.Options, figs []figure) *harness.Runner {
	passID := x.rec.begin(pass, x.cfg.traceID, 0)
	defer x.rec.end(passID)
	var (
		mu      sync.Mutex
		current int
		open    = map[int64]int{} // Progress.Simulations → cell span
		cycles  []string
	)
	opts.Progress = func(p harness.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if !p.Done {
			open[p.Simulations] = x.rec.begin("cell", fmt.Sprintf("%s/%s#%d", x.cfg.traceID, p.Cell, p.Simulations), current)
			return
		}
		x.rec.end(open[p.Simulations])
		delete(open, p.Simulations)
		x.cycles.Add(p.Cycles)
		cycles = append(cycles, fmt.Sprintf("%s %d", p.Cell, p.Cycles))
	}
	r := harness.NewRunner(opts)
	for _, f := range figs {
		before := r.Simulations()
		mu.Lock()
		current = x.rec.begin("harness."+f.name, x.cfg.traceID, passID)
		id := current
		mu.Unlock()
		tables, err := f.run(ctx, r)
		x.rec.end(id)
		// A figure whose cells all come from the runner's cache still
		// counts as one attempt, so a table mismatch there is a failure.
		cells := max(int(r.Simulations()-before), 1)
		x.res.Attempted += cells
		x.counts["harness.cells"] += float64(r.Simulations() - before)
		if err != nil {
			x.fail(cells, fmt.Errorf("%s %s: %w", pass, f.name, err))
			continue
		}
		if err := x.rec.timed("workloads.verify", x.cfg.traceID, passID, func() error { return x.check(f, tables) }); err != nil {
			x.fail(cells, fmt.Errorf("%s %s: %w", pass, f.name, err))
		}
	}
	// Cells run concurrently, so their completion order varies; the
	// multiset of per-cell cycle counts does not.
	sort.Strings(cycles)
	fmt.Fprintf(x.digest, "%s cells:\n%s\n", pass, strings.Join(cycles, "\n"))
	return r
}

// check renders a figure's tables into the digest and compares them with
// the reference.
func (x *rep) check(f figure, tables []*harness.Table) error {
	var b strings.Builder
	for _, t := range tables {
		t.Render(&b)
	}
	got := b.String()
	x.digest.Write([]byte(got))
	if cold, ok := x.res.Tables[f.name]; ok && cold != got {
		return fmt.Errorf("warm tables differ from cold:\n%s", firstDiff(cold, got))
	}
	x.res.Tables[f.name] = got
	if x.cfg.ref == nil {
		return nil
	}
	want, ok := x.cfg.ref[f.name]
	if !ok {
		return fmt.Errorf("no reference tables")
	}
	if got != want {
		return fmt.Errorf("tables differ from reference:\n%s", firstDiff(want, got))
	}
	return nil
}

// firstDiff shows the first differing line of two renderings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d: want %q\n         got  %q", i+1, w, g)
		}
	}
	return "(identical)"
}

// cellMetrics derives the harness-layer numbers from cell spans: their
// count, percentiles, and the core time no cell used, summed over the
// spans that hold cells (figure × GOMAXPROCS − Σ cells).
func (x *rep) cellMetrics(spans []span) {
	var durs []float64
	holders := map[int]float64{}
	for _, s := range spans {
		if s.Name == "cell" {
			durs = append(durs, s.End-s.Start)
			holders[s.Parent] += s.End - s.Start
		}
	}
	m := x.res.Metrics
	if _, ok := m["harness.cells"]; !ok {
		m["harness.cells"] = float64(len(durs))
	}
	sort.Float64s(durs)
	if n := len(durs); n > 0 {
		m["harness.cell_p50_s"] = durs[(n-1)/2]
		m["harness.cell_p90_s"] = durs[(n-1)*9/10]
	}
	procs := float64(runtime.GOMAXPROCS(0))
	var idle float64
	for _, s := range spans {
		if busy, ok := holders[s.ID]; ok {
			idle += (s.End-s.Start)*procs - busy
		}
	}
	m["harness.idle_core_s"] = idle
}

// attribute turns the traced rep's CPU profile into per-layer CPU
// shares. The harness builds and runs its machines internally, so for
// harness workloads the set-up and run times come from the CPU time of
// samples under those calls instead of from spans.
func (x *rep) attribute(data []byte, harnessDriven bool) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	byLayer := p.layerNanos()
	var sum int64
	for _, ns := range byLayer {
		sum += ns
	}
	m := x.res.Metrics
	if sum == 0 {
		return nil // too short a rep for a 100 Hz profiler: every share reads 0
	}
	for layer, ns := range byLayer {
		m[layer+".cpu_share"] = float64(ns) / float64(sum)
	}
	if harnessDriven {
		under := func(match func(string) bool) float64 { return float64(p.nanosUnder(match)) / 1e9 }
		m["workloads.setup_s"] = under(func(fn string) bool {
			return fn == "pimsim/internal/workloads.New" ||
				(strings.HasPrefix(fn, "pimsim/internal/workloads.") && strings.HasSuffix(fn, ".Streams"))
		})
		m["machine.new_s"] = under(func(fn string) bool { return fn == "pimsim/internal/machine.New" })
		m["machine.run_s"] = under(func(fn string) bool { return fn == "pimsim/internal/machine.(*Machine).Drive" })
	}
	return nil
}

// calibSink keeps calibrate's loop from being optimized away.
var calibSink uint64

// calibrate times a fixed integer loop, in ms. It runs before each rep:
// when it drifts between reps, the host changed speed, not the simulator.
func calibrate() float64 {
	t := time.Now()
	v := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
	}
	calibSink = v
	return float64(time.Since(t)) / 1e6
}

// runtimeNames are the runtime/metrics readRuntime samples, in order.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}
