// Package harness regenerates every table and figure of the paper's
// evaluation (§7): it builds machines in the four system configurations,
// runs the ten workloads over the Table 3 input sizes, and renders the
// comparisons the paper plots. Each experiment has a Fig*/Sec* entry
// point returning a renderable Table; cmd/peibench drives them from the
// command line and bench_test.go drives scaled-down versions.
//
// Every figure declares its simulations as a grid of Cells and runs it
// on one worker pool (Options.Parallelism, default GOMAXPROCS). Every
// simulation, Figure 9's multiprogrammed pairs included, goes through
// Runner.RunWorkload, which builds its workloads and machine and
// memoizes the run by content digest. Every simulated machine is fully
// self-contained, so cells run concurrently while table rows are always
// assembled in declared order — output is byte-identical at any
// parallelism level. Every entry point takes a context.Context;
// cancelling it aborts in-flight simulations promptly.
package harness

import (
	"context"
	"errors"
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
	// to cold runs (pinned by the resume-equivalence tests). The store
	// opened here has no size budget; a caller that needs LRU eviction
	// opens its own and injects it as SnapshotStore.
	SnapshotDir string
	// SnapshotStore injects an already-open blob store instead of
	// SnapshotDir — peiserved shares one store (and its hit/miss
	// counters) across every job it runs.
	SnapshotStore *snap.Store
}

// Progress is one simulation-lifecycle event delivered to
// Options.Progress (live experiment feedback: peiserved streams these
// over SSE).
type Progress struct {
	// Cell names the run as "workload/size/mode". A run on a named
	// graph puts the graph in place of the size, and a multiprogrammed
	// run joins its programs with "+": "bfs/small+hj/large/Host-Only".
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

// Default returns laptop-scale options.
func Default() Options {
	return Options{
		Cfg:       config.Scaled(),
		Scale:     64,
		OpBudget:  60_000,
		Workloads: workloads.Names,
		Pairs:     40,
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

// Cell is one run of a figure's grid: a workload at an input size under
// one system configuration, on the runner's config.
type Cell struct {
	Workload string
	Size     workloads.Size
	Mode     pim.Mode
	// Graph, if non-nil, replaces the workload's Table 3 input graph
	// (Figures 2 and 8 run PageRank on each named dataset).
	Graph *graph.DatasetSpec
	// Mutate, if non-nil, adjusts a clone of the runner's config before
	// the machine is built (design variants, ablations).
	Mutate func(*config.Config)
	// Seed perturbs the synthetic input (workloads.Params.Seed).
	Seed int64
	// With, if non-nil, runs a second program beside this one: the cell
	// takes the first max(Cores/2, 1) cores and With the rest (Figure
	// 9's multiprogrammed pairs). Only With's workload, size, graph and
	// seed are read.
	With *Cell
}

// Program is one workload of a run, with the parameters it is built
// from. A run of several programs gives each its Params.Threads cores,
// in order.
type Program struct {
	Workload string
	Params   workloads.Params
}

// label names a run in -v lines, Progress events and errors:
// "workload/size" per program, with the graph in place of the size when
// one is set, joined by "+", then "/mode".
func label(progs []Program, mode pim.Mode) string {
	parts := make([]string, len(progs))
	for i, p := range progs {
		input := p.Params.Size.String()
		if p.Params.Graph != nil {
			input = p.Params.Graph.Name
		}
		parts[i] = p.Workload + "/" + input
	}
	return strings.Join(parts, "+") + "/" + mode.String()
}

// cellRun is one in-flight or completed memoized simulation. Waiters
// block on done; res/err are immutable once done is closed.
type cellRun struct {
	done chan struct{}
	res  machine.Result
	err  error
}

// Runner executes and memoizes runs so figures sharing design points pay
// for each simulation once. It is safe for concurrent use: the memo is
// singleflight, keyed by a run's content digest — a run requested while
// an identical one is simulating is not re-run, the second requester
// blocks on the in-flight run. The memo lives as long as the runner.
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
// started (runs served from the memo excluded).
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

// program is the run of c's own workload on the whole machine.
func (r *Runner) program(c Cell) Program {
	p := r.params(c.Size)
	p.Graph, p.Seed = c.Graph, c.Seed
	return Program{c.Workload, p}
}

// RunCell simulates one cell through RunWorkload, so it shares the memo
// with every other run of the same design point.
func (r *Runner) RunCell(ctx context.Context, c Cell) (machine.Result, error) {
	progs := []Program{r.program(c)}
	if c.With != nil {
		half := max(r.Opts.Cfg.Cores/2, 1)
		progs = append(progs, r.program(*c.With))
		progs[0].Params.Threads = half
		progs[1].Params.Threads = r.Opts.Cfg.Cores - half
	}
	res, err := r.RunWorkload(ctx, progs, c.Mode, c.Mutate, false)
	if err != nil {
		err = fmt.Errorf("harness: %s: %w", label(progs, c.Mode), err)
	}
	return res, err
}

// RunWorkload builds each program's workload (progs must not be empty) and
// runs them side by side on one fresh machine, as one workloads.Mix. It is the only path a run
// takes: cells and their graph, config-mutating and multiprogrammed
// variants, pei.RunWorkloadContext and pei.RunJob all come through here.
// mutate, if non-nil, adjusts a clone of the runner's config before the
// machine is built; verify checks the functional results against each
// workload's golden implementation after the run.
//
// Runs are memoized, singleflight, on their runDigest plus verify: a
// mutate that leaves the config equal shares the unmutated run, and
// concurrent requests for one digest simulate exactly once. Waiters
// return the leader's result (shared: read-only), or ctx.Err() if their
// own context ends first. Failed (often: cancelled) runs are evicted so
// a later request re-simulates instead of replaying the error.
//
// A run is a sequence of phases cut at the workloads' superstep
// boundaries. Without a snapshot store it is one phase — Start, Drive,
// CheckDone, Finish, exactly machine.RunContext. With a store it is
// Rounds() phases: the run resumes from the deepest stored boundary and
// writes every interior boundary back (see snapshot.go).
func (r *Runner) RunWorkload(ctx context.Context, progs []Program, mode pim.Mode, mutate func(*config.Config), verify bool) (res machine.Result, err error) {
	for _, p := range progs {
		if verify && p.Params.OpBudget > 0 {
			return machine.Result{}, fmt.Errorf("harness: cannot verify a budget-truncated run")
		}
	}
	if err := ctx.Err(); err != nil {
		return machine.Result{}, err
	}
	cfg := r.Opts.Cfg.Clone()
	if mutate != nil {
		mutate(cfg)
	}
	digest := runDigest(cfg, progs, mode)
	key := fmt.Sprintf("%s/verify=%t", digest, verify)
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

	cell := label(progs, mode)
	defer func() {
		if err != nil {
			r.mu.Lock()
			delete(r.cache, key)
			r.mu.Unlock()
		} else {
			r.logf("  %-18s %12d cycles  %5.1f%% PIM", cell, res.Cycles, 100*res.PIMFraction())
		}
		e.res, e.err = res, err
		close(e.done)
	}()
	n := r.simulations.Add(1)
	var simulated int64 // cycles driven in this run; stays 0 on failure
	if r.Opts.Progress != nil {
		r.Opts.Progress(Progress{Cell: cell, Simulations: n})
		defer func() {
			r.Opts.Progress(Progress{Cell: cell, Done: true, Cycles: simulated, Simulations: n})
		}()
	}
	st, err := r.snapStore()
	if err != nil {
		return machine.Result{}, err
	}
	build := func() (*machine.Machine, workloads.Workload, []cpu.Stream, error) {
		w := make(workloads.Mix, len(progs))
		for i, p := range progs {
			var err error
			if w[i], err = workloads.New(p.Workload, p.Params); err != nil {
				return nil, nil, nil, err
			}
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
	if st != nil {
		rounds = w.Rounds()
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
		if err := st.Put(digest, phase+1, int64(m.K.Now()), func(out io.Writer) error {
			return m.SnapshotTo(out, w.Snap)
		}); err != nil {
			return machine.Result{}, err
		}
	}
	if err := m.CheckDone(streams); err != nil {
		return machine.Result{}, err
	}
	res = m.Finish()
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

// grid simulates a rows × cols table of cells on the runner's worker
// pool (Options.Parallelism goroutines) and returns res[i][j] for
// cell(i, j). It is the one fan-out every figure uses. The flat order is
// column-major: the row index (the workload, graph or pair) varies
// fastest, so concurrent workers run different inputs under one design
// point rather than one input under several. Row-major order puts two
// machines of the same large input in flight at once and raises peak
// RSS by about a fifth.
//
// On the first failing cell or on ctx cancellation the remaining cells
// are abandoned. A cancelled ctx returns its error; otherwise the
// lowest-index error wins, preferring a real failure over the
// context.Canceled that cells still running report once the pool is
// cancelled on the failure's behalf.
func (r *Runner) grid(ctx context.Context, rows, cols int, cell func(i, j int) Cell) ([][]machine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := make([][]machine.Result, rows)
	for i := range res {
		res[i] = make([]machine.Result, cols)
	}
	n := rows * cols
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(r.Opts.Parallelism, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n && cctx.Err() == nil; k = int(next.Add(1) - 1) {
				i, j := k%rows, k/rows
				if res[i][j], errs[k] = r.RunCell(cctx, cell(i, j)); errs[k] != nil {
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var first error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return res, nil
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
