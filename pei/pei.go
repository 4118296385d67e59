// Package pei is the public API of the PEI simulator: a facade over the
// internal packages that lets a user build a simulated machine, run the
// paper's workloads or their own PEI programs on it, and reproduce the
// paper's experiments.
//
// Quick start:
//
//	sys, _ := pei.NewSystem(pei.ScaledConfig(), pei.LocalityAware)
//	counter := sys.Alloc(8, 8)
//	prog := pei.NewProgram()
//	for i := 0; i < 100; i++ {
//		prog.AtomicInc(counter)
//	}
//	res, _ := sys.Run(prog)
//	fmt.Println(res.Cycles, sys.ReadU64(counter))
//
// Every run has a context-aware form (System.RunContext,
// RunWorkloadContext, Reproduce) that aborts the simulation promptly
// when the context is cancelled; the legacy signatures are thin wrappers
// over context.Background(). Reproduce executes experiment cells on a
// worker pool — see ReproduceOptions.Parallelism.
package pei

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/harness"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
	"pimsim/internal/workloads"
)

// Config describes the simulated machine; see the fields of
// internal/config.Config (re-exported verbatim).
type Config = config.Config

// Mode selects where PEIs may execute (§7's system configurations).
type Mode = pim.Mode

// The four system configurations of the paper's evaluation.
const (
	HostOnly      = pim.HostOnly
	PIMOnly       = pim.PIMOnly
	LocalityAware = pim.LocalityAware
	IdealHost     = pim.IdealHost
)

// Result summarizes a run (cycles, PEI steering, off-chip traffic,
// energy).
type Result = machine.Result

// BaselineConfig returns the paper's Table 2 machine; ScaledConfig a
// laptop-scale variant with proportionally smaller caches.
func BaselineConfig() *Config { return config.Baseline() }
func ScaledConfig() *Config   { return config.Scaled() }

// LoadConfig reads a JSON config layered over the baseline.
func LoadConfig(path string) (*Config, error) { return config.LoadJSON(path) }

// System is a simulated machine ready to run streams.
type System struct {
	// M exposes the underlying machine for advanced use (stats registry,
	// PMU, hierarchy).
	M *machine.Machine
}

// NewSystem builds a machine for cfg in the given mode.
func NewSystem(cfg *Config, mode Mode) (*System, error) {
	m, err := machine.New(cfg, mode)
	if err != nil {
		return nil, err
	}
	return &System{M: m}, nil
}

// Alloc reserves n bytes of simulated physical memory (align must be a
// power of two) and returns its address.
func (s *System) Alloc(n int, align uint64) uint64 { return s.M.Store.Alloc(n, align) }

// ReadU64/WriteU64 and ReadF64/WriteF64 access simulated memory
// functionally.
func (s *System) ReadU64(a uint64) uint64      { return s.M.Store.ReadU64(a) }
func (s *System) WriteU64(a uint64, v uint64)  { s.M.Store.WriteU64(a, v) }
func (s *System) ReadF64(a uint64) float64     { return s.M.Store.ReadF64(a) }
func (s *System) WriteF64(a uint64, v float64) { s.M.Store.WriteF64(a, v) }

// Run executes the given programs, one per core, to completion.
//
//peilint:allow ctxfirst compat wrapper; delegates to RunContext with context.Background
func (s *System) Run(progs ...*Program) (Result, error) {
	return s.RunContext(context.Background(), progs...)
}

// RunContext is Run with cancellation: the simulation aborts and returns
// ctx.Err() promptly once ctx is done.
func (s *System) RunContext(ctx context.Context, progs ...*Program) (Result, error) {
	streams := make([]cpu.Stream, len(progs))
	for i, p := range progs {
		p.q.Sink = p
		streams[i] = &p.q
	}
	return s.M.RunContext(ctx, streams)
}

// Summary returns a one-line steering summary.
func (s *System) Summary() string { return s.M.PMU.Summary() }

// Program is a convenience builder for hand-written PEI streams: it
// records operations and plays them back on one core.
type Program struct {
	q cpu.Queue
	// done[i] is the callback of the PEI tagged i+1 (tag 0: none).
	done []func(output []byte)
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// Load and Store emit normal memory accesses.
func (p *Program) Load(a uint64)  { p.q.PushLoad(a) }
func (p *Program) Store(a uint64) { p.q.PushStore(a) }

// Compute emits a run of non-memory work costing the given cycles.
func (p *Program) Compute(cycles int64) { p.q.PushCompute(cycles) }

// AtomicAdd emits one PIM-enabled float64 add of delta to the 8-byte
// word at target. The word is read and written as float64 bits; for
// integer counters use AtomicInc or AtomicMin.
func (p *Program) AtomicAdd(target uint64, delta float64) {
	p.q.PushPEI(pim.OpFloatAdd, target, math.Float64bits(delta), 0)
}

// AtomicInc emits the 8-byte integer increment PEI.
func (p *Program) AtomicInc(target uint64) {
	p.q.PushPEI(pim.OpInc64, target, 0, 0)
}

// AtomicMin emits the 8-byte integer min PEI.
func (p *Program) AtomicMin(target uint64, v uint64) {
	p.q.PushPEI(pim.OpMin64, target, v, 0)
}

// PEI emits an arbitrary PIM-enabled instruction. input must have the
// op's Table 1 size; a wrong size panics when the PEI issues. done, if
// set, runs when the PEI retires and receives a copy of the output
// operand.
func (p *Program) PEI(op pim.OpKind, target uint64, input []byte, done func(output []byte)) {
	var tag uint32
	if done != nil {
		p.done = append(p.done, done)
		tag = uint32(len(p.done))
	}
	p.q.Vectors = append(p.q.Vectors, input)
	p.q.Push(cpu.Op{Kind: cpu.OpPEIVec, PEIOp: op, Tag: tag, Addr: target, N: uint64(len(p.q.Vectors) - 1)})
}

// PEIDone implements cpu.Sink: it hands a retired PEI's output to the
// callback its tag names. The record is recycled after retire, so the
// callback gets a copy.
func (p *Program) PEIDone(pe *pim.PEI) {
	if pe.Tag != 0 {
		p.done[pe.Tag-1](append([]byte(nil), pe.Output...))
	}
}

// Fence emits a pfence.
func (p *Program) Fence() { p.q.PushFence() }

// Workload names and sizes (re-exported).
var WorkloadNames = workloads.Names

type Size = workloads.Size

const (
	Small  = workloads.Small
	Medium = workloads.Medium
	Large  = workloads.Large
)

// WorkloadParams configures a benchmark workload.
type WorkloadParams = workloads.Params

// ParseMode converts a mode name ("host", "pim", "locality", "ideal"
// and common aliases) into a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "host", "host-only":
		return HostOnly, nil
	case "pim", "pim-only":
		return PIMOnly, nil
	case "locality", "locality-aware", "la":
		return LocalityAware, nil
	case "ideal", "ideal-host":
		return IdealHost, nil
	}
	return 0, fmt.Errorf("pei: unknown mode %q (host|pim|locality|ideal)", s)
}

// ParseSize converts "small"/"medium"/"large" into a Size.
func ParseSize(s string) (Size, error) { return workloads.ParseSize(strings.ToLower(s)) }

// WriteWorkloadReport renders the result of running workload name with
// params p as peisim's aligned key/value report; verify adds the line
// that says the functional results were checked.
func WriteWorkloadReport(w io.Writer, name string, p WorkloadParams, verify bool, res Result) {
	fmt.Fprintf(w, "workload        %s (%s inputs, scale 1/%d, %d threads)\n",
		name, p.Size, p.Scale, p.Threads)
	fmt.Fprintf(w, "mode            %s\n", res.Mode)
	fmt.Fprintf(w, "cycles          %d\n", res.Cycles)
	fmt.Fprintf(w, "ops retired     %d (IPC %.3f)\n", res.Retired, res.IPC())
	fmt.Fprintf(w, "PEIs            %d (%d host, %d memory, %.1f%% PIM)\n",
		res.PEIHost+res.PEIMem, res.PEIHost, res.PEIMem, 100*res.PIMFraction())
	fmt.Fprintf(w, "off-chip bytes  %d\n", res.OffchipBytes)
	fmt.Fprintf(w, "DRAM accesses   %d\n", res.DRAMAccesses)
	fmt.Fprintf(w, "energy (nJ)     %.0f (caches %.0f, DRAM %.0f, links %.0f, TSV %.0f, PCU %.0f, PMU %.0f)\n",
		res.Energy.Total(), res.Energy.Caches, res.Energy.DRAM, res.Energy.Offchip,
		res.Energy.TSV, res.Energy.PCU, res.Energy.PMU)
	if verify {
		fmt.Fprintln(w, "verification    OK")
	}
}

// RunWorkload builds a machine, runs one of the paper's ten workloads on
// it, optionally verifies functional results, and returns the result.
//
//peilint:allow ctxfirst compat wrapper; delegates to RunWorkloadContext with context.Background
func RunWorkload(cfg *Config, mode Mode, name string, p WorkloadParams, verify bool) (Result, error) {
	return RunWorkloadContext(context.Background(), cfg, mode, name, p, verify)
}

// RunWorkloadContext is RunWorkload with cancellation.
func RunWorkloadContext(ctx context.Context, cfg *Config, mode Mode, name string, p WorkloadParams, verify bool) (Result, error) {
	return harness.NewRunner(harness.Options{Cfg: cfg}).RunWorkload(ctx, []harness.Program{{Workload: name, Params: p}}, mode, nil, verify)
}

// SnapshotStore is the content-addressed checkpoint store behind warm
// starts: blobs keyed by (config digest, phase, cycle). Point
// ReproduceOptions.SnapshotDir (or .SnapshotStore) at one to resume
// sweeps from the deepest shared checkpoint.
type SnapshotStore = snap.Store

// SnapshotStoreStats are a store's hit/miss/write counters.
type SnapshotStoreStats = snap.StoreStats

// OpenSnapshotStore opens (creating if needed) a snapshot store rooted
// at dir.
func OpenSnapshotStore(dir string) (*SnapshotStore, error) {
	return snap.NewStore(dir)
}

// ReproduceOptions configures the experiment harness (including
// Parallelism, the worker-pool width for concurrent cells).
type ReproduceOptions = harness.Options

// DefaultReproduceOptions returns laptop-scale experiment options.
func DefaultReproduceOptions() ReproduceOptions { return harness.Default() }

// experiment is one registered named experiment.
type experiment struct {
	name string
	run  func(ctx context.Context, r *harness.Runner, w io.Writer) error
}

// renderer renders a (table, error) pair to w, propagating the error.
func renderer(w io.Writer) func(*harness.Table, error) error {
	return func(t *harness.Table, err error) error {
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}
}

// bySize runs a per-size figure (as a method expression) over the three
// Table 3 input sizes.
func bySize(f func(*harness.Runner, context.Context, workloads.Size) (*harness.Table, error)) func(context.Context, *harness.Runner, io.Writer) error {
	return func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		render := renderer(w)
		for _, size := range []workloads.Size{workloads.Small, workloads.Medium, workloads.Large} {
			if err := render(f(r, ctx, size)); err != nil {
				return err
			}
		}
		return nil
	}
}

// experiments is the registry Reproduce dispatches on, in paper order.
// "all" is implicit: it runs every entry on one shared runner, so every
// design point two experiments share simulates once.
var experiments = []experiment{
	{"fig2", func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		return renderer(w)(r.Fig2(ctx))
	}},
	{"fig6", bySize((*harness.Runner).Fig6)},
	{"fig7", bySize((*harness.Runner).Fig7)},
	{"fig8", func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		return renderer(w)(r.Fig8(ctx))
	}},
	{"fig9", func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		return renderer(w)(r.Fig9(ctx))
	}},
	{"fig10", func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		return renderer(w)(r.Fig10(ctx))
	}},
	{"fig11a", func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		return renderer(w)(r.Fig11a(ctx))
	}},
	{"fig11b", func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		return renderer(w)(r.Fig11b(ctx))
	}},
	{"sec7.6", func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		return renderer(w)(r.Sec76(ctx))
	}},
	{"fig12", bySize((*harness.Runner).Fig12)},
	{"ablations", func(ctx context.Context, r *harness.Runner, w io.Writer) error {
		render := renderer(w)
		for _, f := range []func(context.Context) (*harness.Table, error){
			r.AblationIgnoreBit, r.AblationPartialTagWidth,
			r.AblationDirectorySize, r.AblationDispatchWindow,
			r.AblationInterleave, r.AblationPrefetcher,
			r.ComparisonHMC2,
		} {
			if err := render(f(ctx)); err != nil {
				return err
			}
		}
		return nil
	}},
}

// experimentAliases maps accepted alternate spellings to registry names.
var experimentAliases = map[string]string{"sec76": "sec7.6"}

// Experiments lists every runnable experiment name in paper order,
// ending with the meta-experiment "all".
func Experiments() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// Reproduce runs one named experiment (see Experiments for the valid
// names) and renders its tables to w. Cells execute concurrently per
// opts.Parallelism; cancelling ctx aborts the sweep promptly with
// ctx.Err(). "all" runs every experiment on one shared runner, whose
// memo simulates each design point the experiments share once.
func Reproduce(ctx context.Context, name string, opts ReproduceOptions, w io.Writer) error {
	_, err := ReproduceWithReport(ctx, name, opts, w)
	return err
}

// SnapshotReport summarizes a run's warm-start activity: checkpoint
// store counters plus the simulated-vs-skipped cycle ledger
// (re-exported from the harness).
type SnapshotReport = harness.SnapshotReport

// ReproduceWithReport is Reproduce plus the warm-start summary of the
// sweep (the zero report when opts enables no snapshots).
func ReproduceWithReport(ctx context.Context, name string, opts ReproduceOptions, w io.Writer) (SnapshotReport, error) {
	r := harness.NewRunner(opts)
	err := reproduceOn(ctx, name, r, w)
	return r.SnapshotReport(), err
}

// CheckExperiment reports whether name is runnable: an experiment,
// an alias of one, or "all". Its error lists the valid names.
func CheckExperiment(name string) error {
	_, err := lookupExperiment(name)
	return err
}

// lookupExperiment resolves a runnable name (a registry name, an
// alias, or "all") to the experiments it runs.
func lookupExperiment(name string) ([]experiment, error) {
	if name == "all" {
		return experiments, nil
	}
	if canonical, ok := experimentAliases[name]; ok {
		name = canonical
	}
	for i, e := range experiments {
		if e.name == name {
			return experiments[i : i+1], nil
		}
	}
	return nil, fmt.Errorf("pei: unknown experiment %q (valid: %s)", name, strings.Join(Experiments(), ", "))
}

// reproduceOn dispatches one named experiment onto an existing runner.
func reproduceOn(ctx context.Context, name string, r *harness.Runner, w io.Writer) error {
	run, err := lookupExperiment(name)
	if err != nil {
		return err
	}
	for _, e := range run {
		if err := e.run(ctx, r, w); err != nil {
			return err
		}
	}
	return nil
}
