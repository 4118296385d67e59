// Package harness regenerates every table and figure of the paper's
// evaluation (§7): it builds machines in the four system configurations,
// runs the ten workloads over the Table 3 input sizes, and renders the
// comparisons the paper plots. Each experiment has a Fig*/Sec* entry
// point returning a renderable Table; cmd/peibench drives them from the
// command line and bench_test.go drives scaled-down versions.
//
// Cells execute on a worker pool (Options.Parallelism, default
// GOMAXPROCS): every simulated machine is fully self-contained, so
// independent (workload, size, mode) cells run concurrently while table
// rows are always assembled in declared order — output is byte-identical
// at any parallelism level. Every entry point takes a context.Context;
// cancelling it aborts in-flight simulations promptly.
package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/graph"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
	"pimsim/internal/workloads"
)

// Options configures a reproduction run. The defaults (see Default)
// pair the scaled machine with scale-64 inputs so every figure runs on a
// laptop in minutes; Scale=1 with the Baseline config reproduces the
// paper's full sizes.
type Options struct {
	// Cfg is the machine description (cloned per run).
	Cfg *config.Config
	// Scale divides the Table 3 input sizes.
	Scale int
	// OpBudget bounds per-thread generated ops (0 = run to completion).
	OpBudget int64
	// Workloads to include (defaults to all ten).
	Workloads []string
	// Pairs is the multiprogrammed-workload count for Figure 9.
	Pairs int
	// MixSeed seeds the RNG that draws Figure 9's workload mixes
	// (<= 0 means DefaultMixSeed). Recording the seed in the run
	// configuration — rather than burying a literal at the draw site —
	// is what makes the mix list reproducible across processes.
	MixSeed int64
	// Parallelism is the number of cells simulated concurrently
	// (<= 0 means runtime.GOMAXPROCS(0)). Tables are identical at every
	// level: cells are isolated machines and rows are assembled in
	// declared order regardless of completion order.
	Parallelism int
	// Verbose, if non-nil, receives progress lines (goroutine-safe).
	Verbose io.Writer
	// Progress, if non-nil, receives one event when each simulation
	// starts and one when it finishes. With Parallelism > 1 it is called
	// from multiple goroutines concurrently; the callback must be
	// goroutine-safe and fast (it runs on the simulation worker).
	Progress func(Progress)
	// SnapshotDir, when non-empty, enables checkpoint/warm-start: cells
	// run phased, every interior superstep boundary is serialized into a
	// content-addressed blob store rooted here, and reruns of a cell
	// resume from the deepest stored boundary. Results are bit-identical
	// to cold runs (pinned by the resume-equivalence tests).
	SnapshotDir string
	// SnapshotBudget caps the snapshot directory's size in bytes;
	// least-recently-used blobs are evicted beyond it (<= 0: unlimited).
	SnapshotBudget int64
	// SnapshotStore injects an already-open blob store instead of
	// SnapshotDir/SnapshotBudget — peiserved shares one store (and its
	// hit/miss counters) across every job it runs.
	SnapshotStore *snap.Store
}

// Progress is one simulation-lifecycle event delivered to
// Options.Progress (live experiment feedback: peiserved streams these
// over SSE).
type Progress struct {
	// Cell names the run as "workload/size/mode".
	Cell string `json:"cell"`
	// Done is false when the simulation starts, true when it finishes.
	Done bool `json:"done"`
	// Cycles is the number of cycles this run simulated (Done events
	// only; zero for failed or cancelled runs). A warm-started run
	// counts only the cycles after the snapshot it resumed from.
	Cycles int64 `json:"cycles,omitempty"`
	// Simulations is the runner's machine count so far, including this
	// one.
	Simulations int64 `json:"simulations"`
}

// DefaultMixSeed is the historical Figure 9 mix seed; every golden
// table was generated from this draw sequence.
const DefaultMixSeed = 12345

// Default returns laptop-scale options.
func Default() Options {
	return Options{
		Cfg:       config.Scaled(),
		Scale:     64,
		OpBudget:  60_000,
		Workloads: workloads.Names,
		Pairs:     40,
		MixSeed:   DefaultMixSeed,
	}
}

func (o Options) withDefaults() Options {
	if o.Cfg == nil {
		o.Cfg = config.Scaled()
	}
	if o.Scale <= 0 {
		o.Scale = 64
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workloads.Names
	}
	if o.Pairs <= 0 {
		o.Pairs = 40
	}
	if o.MixSeed <= 0 {
		o.MixSeed = DefaultMixSeed
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// BarColumn, when >= 1, renders an ASCII bar chart of that numeric
	// column next to each row (the "series" view of the paper's bar
	// figures).
	BarColumn int
}

// MarshalRow is one machine-readable row of a table.
type MarshalRow map[string]string

// jsonKeys returns one unique JSON key per column: the header string
// where present, "col<j>" otherwise, with a positional "#<col>" suffix
// appended to later duplicates so colliding headers never drop data.
func (t *Table) jsonKeys(cols int) []string {
	keys := make([]string, cols)
	seen := make(map[string]bool, cols)
	for j := 0; j < cols; j++ {
		key := fmt.Sprintf("col%d", j)
		if j < len(t.Header) {
			key = t.Header[j]
		}
		for seen[key] {
			key = fmt.Sprintf("%s#%d", key, j)
		}
		seen[key] = true
		keys[j] = key
	}
	return keys
}

// JSON serializes the table as {title, notes, rows:[{header:cell}]} for
// downstream plotting tools.
func (t *Table) JSON() ([]byte, error) {
	cols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	keys := t.jsonKeys(cols)
	rows := make([]MarshalRow, len(t.Rows))
	for i, row := range t.Rows {
		m := make(MarshalRow, len(row))
		for j, cell := range row {
			m[keys[j]] = cell
		}
		rows[i] = m
	}
	return json.MarshalIndent(struct {
		Title string       `json:"title"`
		Notes []string     `json:"notes,omitempty"`
		Rows  []MarshalRow `json:"rows"`
	}{t.Title, t.Notes, rows}, "", "  ")
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	bars := t.bars()
	line(t.Header)
	for i, row := range t.Rows {
		if bars != nil {
			row = append(append([]string(nil), row...), bars[i])
		}
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// bars renders the BarColumn as proportional hash bars (nil when
// disabled or non-numeric).
func (t *Table) bars() []string {
	if t.BarColumn < 1 {
		return nil
	}
	const width = 30
	vals := make([]float64, len(t.Rows))
	max := 0.0
	for i, row := range t.Rows {
		if t.BarColumn >= len(row) {
			return nil
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[t.BarColumn], "%"), 64)
		if err != nil || v < 0 {
			v = 0
		}
		vals[i] = v
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return nil
	}
	out := make([]string, len(t.Rows))
	for i, v := range vals {
		n := int(v / max * width)
		out[i] = strings.Repeat("#", n)
	}
	return out
}

// Cell identifies one (workload, size, mode) run.
type Cell struct {
	Workload string
	Size     workloads.Size
	Mode     pim.Mode
}

func (c Cell) key() string {
	return fmt.Sprintf("%s/%s/%s", c.Workload, c.Size, c.Mode)
}

// cellRun is one in-flight or completed cached simulation. Waiters block
// on done; res/err are immutable once done is closed.
type cellRun struct {
	done chan struct{}
	res  machine.Result
	err  error
}

// Runner executes and caches cells so figures sharing runs (6, 7, 12)
// pay for each simulation once. It is safe for concurrent use: the cell
// cache is singleflight — a cell requested while already simulating is
// not re-run, the second requester blocks on the in-flight run.
type Runner struct {
	Opts Options

	mu    sync.Mutex
	cache map[string]*cellRun

	logMu sync.Mutex

	// simulations counts machines built and run (tests, effort reports).
	simulations atomic.Int64

	// Warm-start state (Options.SnapshotDir): the shared blob store and
	// the cycle ledger behind SnapshotReport.
	snapMu          sync.Mutex
	store           *snap.Store
	storeErr        error
	cyclesSimulated atomic.Int64
	cyclesSkipped   atomic.Int64
}

// NewRunner creates a runner with normalized options.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts.withDefaults(), cache: make(map[string]*cellRun)}
}

// Simulations reports how many machine simulations this runner has
// started (cache hits excluded).
func (r *Runner) Simulations() int64 { return r.simulations.Load() }

// logf emits one progress line to Options.Verbose (goroutine-safe).
func (r *Runner) logf(format string, args ...interface{}) {
	if r.Opts.Verbose == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Opts.Verbose, format+"\n", args...)
}

func (r *Runner) params(size workloads.Size) workloads.Params {
	return workloads.Params{
		Threads:  r.Opts.Cfg.Cores,
		Size:     size,
		Scale:    r.Opts.Scale,
		OpBudget: r.Opts.OpBudget,
	}
}

// RunCell simulates one cell (cached, singleflight). Concurrent requests
// for the same cell simulate exactly once; the waiters return the leader's
// result, or ctx.Err() if their own context ends first.
func (r *Runner) RunCell(ctx context.Context, c Cell) (machine.Result, error) {
	key := c.key()
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		select {
		case <-e.done:
			return e.res, e.err
		case <-ctx.Done():
			return machine.Result{}, ctx.Err()
		}
	}
	e := &cellRun{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()

	res, err := r.RunWorkload(ctx, c.Workload, r.params(c.Size), c.Mode, nil, false)
	if err != nil {
		// Failed (often: cancelled) runs are evicted so a later request
		// re-simulates instead of replaying the error.
		err = fmt.Errorf("harness: %s: %w", key, err)
		r.mu.Lock()
		delete(r.cache, key)
		r.mu.Unlock()
	}
	e.res, e.err = res, err
	close(e.done)
	if err == nil {
		r.logf("  %-18s %12d cycles  %5.1f%% PIM", key, res.Cycles, 100*res.PIMFraction())
	}
	return res, err
}

// RunWorkload simulates one workload on a fresh machine. It is the only
// path a single-workload run takes: cells and their graph and
// config-mutating variants, pei.RunWorkloadContext and pei.RunJob all
// come through here. mutate, if non-nil, adjusts a clone of the runner's
// config before the machine is built; verify checks the functional
// results against the workload's golden implementation after the run.
//
// A run is a sequence of phases cut at the workload's superstep
// boundaries. Without a snapshot store it is one phase — Start, Drive,
// CheckDone, Finish, exactly machine.RunContext. With a store it is
// Rounds() phases: the run resumes from the deepest stored boundary and
// writes every interior boundary back (see snapshot.go).
func (r *Runner) RunWorkload(ctx context.Context, name string, p workloads.Params, mode pim.Mode, mutate func(*config.Config), verify bool) (machine.Result, error) {
	if verify && p.OpBudget > 0 {
		return machine.Result{}, fmt.Errorf("harness: cannot verify a budget-truncated run")
	}
	if err := ctx.Err(); err != nil {
		return machine.Result{}, err
	}
	n := r.simulations.Add(1)
	var simulated int64 // cycles driven in this run; stays 0 on failure
	if r.Opts.Progress != nil {
		cell := fmt.Sprintf("%s/%s/%s", name, p.Size, mode)
		r.Opts.Progress(Progress{Cell: cell, Simulations: n})
		defer func() {
			r.Opts.Progress(Progress{Cell: cell, Done: true, Cycles: simulated, Simulations: n})
		}()
	}
	cfg := r.Opts.Cfg.Clone()
	if mutate != nil {
		mutate(cfg)
	}
	st, err := r.snapStore()
	if err != nil {
		return machine.Result{}, err
	}
	build := func() (*machine.Machine, workloads.Workload, []cpu.Stream, error) {
		w, err := workloads.New(name, p)
		if err != nil {
			return nil, nil, nil, err
		}
		m, err := machine.New(cfg, mode)
		if err != nil {
			return nil, nil, nil, err
		}
		return m, w, w.Streams(m), nil
	}
	m, w, streams, err := build()
	if err != nil {
		return machine.Result{}, err
	}

	rounds, phase := 1, 0
	var digest string
	if st != nil {
		rounds = w.Rounds()
		digest = snapshotDigest(cfg, name, p, mode)
		if blob, ok := st.Best(digest); ok {
			if err := restore(m, w, blob.Path); err != nil {
				// A torn or stale blob must not poison the run: drop it and
				// rebuild cold (restore may have half-mutated the machine).
				r.logf("  snapshot %s unusable (%v), running cold", blob.Path, err)
				os.Remove(blob.Path)
				if m, w, streams, err = build(); err != nil {
					return machine.Result{}, err
				}
			} else {
				phase = blob.Phase
			}
		}
	}

	start := int64(m.K.Now())
	for ; phase < rounds; phase++ {
		last := phase+1 >= rounds
		if last {
			w.SetRoundLimit(0) // the final phase runs to completion, tail included
		} else {
			w.SetRoundLimit(phase + 1)
		}
		if err := m.Start(streams); err != nil {
			return machine.Result{}, err
		}
		if err := m.Drive(ctx); err != nil {
			return machine.Result{}, err
		}
		if last {
			break
		}
		var buf bytes.Buffer
		if err := m.SnapshotTo(&buf, w.SnapshotTo); err != nil {
			return machine.Result{}, err
		}
		if err := st.Put(digest, phase+1, int64(m.K.Now()), buf.Bytes()); err != nil {
			return machine.Result{}, err
		}
	}
	if err := m.CheckDone(streams); err != nil {
		return machine.Result{}, err
	}
	res := m.Finish()
	if st != nil {
		r.cyclesSimulated.Add(int64(res.Cycles) - start)
		r.cyclesSkipped.Add(start)
	}
	if verify {
		if err := w.Verify(m); err != nil {
			return res, err
		}
	}
	simulated = int64(res.Cycles) - start
	return res, nil
}

// runGraphWorkload runs a graph workload on a specific named dataset.
func (r *Runner) runGraphWorkload(ctx context.Context, name string, spec graph.DatasetSpec, mode pim.Mode) (machine.Result, error) {
	p := r.params(workloads.Large)
	p.Graph = &spec
	return r.RunWorkload(ctx, name, p, mode, nil, false)
}

// forEach runs fn(ctx, i) for every i in [0, n) on the runner's worker
// pool (Options.Parallelism goroutines). fn must write its result into
// index-addressed storage so the caller can assemble output in declared
// order. On the first fn error (lowest index wins) or on ctx
// cancellation the remaining work is abandoned and that error returned.
func (r *Runner) forEach(ctx context.Context, n int, fn func(context.Context, int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := r.Opts.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || cctx.Err() != nil {
					return
				}
				if err := fn(cctx, i); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// speedup formats a/b as a speedup of b over a.
func speedup(base, x machine.Result) float64 {
	if x.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(x.Cycles)
}

func fmtF(v float64) string   { return fmt.Sprintf("%.3f", v) }
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// geomean of positive values (GM bars of Figure 6/7).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
