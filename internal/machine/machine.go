// Package machine assembles the full system: cores, the coherent cache
// hierarchy, the crossbar, the PMU with its PCUs, and the HMC chain —
// in one of the four configurations of §7 (Host-Only, PIM-Only,
// Ideal-Host, Locality-Aware). It is the integration point the public
// API, the workloads, and the experiment harness build on.
package machine

import (
	"context"
	"fmt"

	"pimsim/internal/cache"
	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/dram"
	"pimsim/internal/energy"
	"pimsim/internal/hmc"
	"pimsim/internal/memlayout"
	"pimsim/internal/pim"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
	"pimsim/internal/vm"
)

// Machine is a fully wired simulated system.
type Machine struct {
	K     *sim.Kernel
	Cfg   *config.Config
	Reg   *stats.Registry
	Chain *hmc.Chain
	Hier  *cache.Hierarchy
	Store *memlayout.Store
	PMU   *pim.PMU
	Cores []*cpu.Core

	// vml is the virtual-memory layer when EnableVM is set; retained so
	// snapshots can reach the page table and TLBs.
	vml *vmLayer
}

// New builds a machine for cfg in the given mode. cfg is cloned; the
// caller's copy is not retained.
func New(cfg *config.Config, mode pim.Mode) (*Machine, error) {
	cfg = cfg.Clone()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	reg := stats.NewRegistry()
	hmcCfg := hmc.Config{
		Mapping:           cfg.Mapping(),
		Timing:            dram.Timing{TCL: cfg.TCL, TRCD: cfg.TRCD, TRP: cfg.TRP, IssueGap: 2, TREFI: cfg.TREFI, TRFC: cfg.TRFC},
		LinkBytesPerCycle: cfg.LinkBytesPerCycle,
		LinkLatency:       cfg.LinkLatency,
		HopLatency:        cfg.HopLatency,
		TSVBytesPerCycle:  cfg.TSVBytesPerCycle,
		TSVLatency:        cfg.TSVLatency,
		PacketHeaderBytes: cfg.PacketHeaderBytes,
		DispatchWindowCyc: cfg.DispatchWindowCyc,
	}
	chain := hmc.NewChain(k, hmcCfg, reg)
	hier := cache.NewHierarchy(k, cfg, chain, reg)
	store := memlayout.NewStore()
	pmu := pim.NewPMU(k, cfg, hier, chain, store, mode, reg)
	m := &Machine{K: k, Cfg: cfg, Reg: reg, Chain: chain, Hier: hier, Store: store, PMU: pmu}
	var mem cpu.MemPort = hier
	var peiPort cpu.PEIPort = pmu
	if cfg.EnableVM {
		layer := &vmLayer{
			k:       k,
			pt:      vm.NewPageTable(0),
			missLat: sim.Cycle(cfg.TLBMissLatency),
			hier:    hier,
			pmu:     pmu,
		}
		for i := 0; i < cfg.Cores; i++ {
			layer.tlbs = append(layer.tlbs, vm.NewTLB(cfg.TLBEntries, layer.pt, sim.Cycle(cfg.TLBMissLatency), reg))
		}
		mem, peiPort = layer, layer
		m.vml = layer
	}
	for i := 0; i < cfg.Cores; i++ {
		m.Cores = append(m.Cores, cpu.NewCore(i, k, cfg.IssueWidth, cfg.WindowSize, cfg.MaxOps, mem, peiPort))
	}
	return m, nil
}

// MustNew is New for presets known to be valid.
func MustNew(cfg *config.Config, mode pim.Mode) *Machine {
	m, err := New(cfg, mode)
	if err != nil {
		panic(err)
	}
	return m
}

// Result summarizes one run.
type Result struct {
	Mode   pim.Mode
	Cycles sim.Cycle
	// Retired is total ops across cores; PerCoreRetired indexes by core.
	Retired        int64
	PerCoreRetired []int64
	PEIs           int64
	PEIHost        int64
	PEIMem         int64
	OffchipBytes   int64
	DRAMAccesses   int64
	Energy         energy.Breakdown
	Stats          map[string]int64
}

// IPC is aggregate retired ops per cycle (the throughput metric of
// §7.3).
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// PIMFraction is the fraction of PEIs executed memory-side (Figure 8's
// "PIM %").
func (r Result) PIMFraction() float64 {
	if r.PEIHost+r.PEIMem == 0 {
		return 0
	}
	return float64(r.PEIMem) / float64(r.PEIHost+r.PEIMem)
}

// Run executes one stream per core (stream i on core i; nil streams
// leave the core idle) and drives the simulation until every stream
// completes. It may be called once per Machine.
//
//peilint:allow ctxfirst compat wrapper; delegates to RunContext with context.Background
func (m *Machine) Run(streams []cpu.Stream) (Result, error) {
	return m.RunContext(context.Background(), streams)
}

// RunContext is Run with cancellation: the event loop checks ctx between
// event batches and returns ctx.Err() promptly once ctx is done. A
// cancelled machine is left mid-simulation and must not be reused.
//
// It is the one-shot composition of the phased API: Start, Drive to
// completion, CheckDone, Finish. Phased callers (checkpointing runs)
// call those pieces directly, interleaving Quiesce and snapshots
// between Drives.
func (m *Machine) RunContext(ctx context.Context, streams []cpu.Stream) (Result, error) {
	if err := m.Start(streams); err != nil {
		return Result{}, err
	}
	if err := m.Drive(ctx); err != nil {
		return Result{}, err
	}
	if err := m.CheckDone(streams); err != nil {
		return Result{}, err
	}
	return m.Finish(), nil
}

// Start arms stream i on core i (nil streams leave the core idle) in
// core-index order, which fixes the bootstrap event order. Calling Start again re-arms the cores for another phase —
// with the same streams, a round-limited workload resumes exactly where
// its driver stopped.
func (m *Machine) Start(streams []cpu.Stream) error {
	if len(streams) > len(m.Cores) {
		return fmt.Errorf("machine: %d streams for %d cores", len(streams), len(m.Cores))
	}
	started := 0
	for i, s := range streams {
		if s == nil {
			continue
		}
		started++
		m.Cores[i].Run(s)
	}
	if started == 0 {
		return fmt.Errorf("machine: no streams to run")
	}
	return nil
}

// Drive runs the event loop until no work remains (every core drained
// and every queue empty) or ctx is cancelled.
func (m *Machine) Drive(ctx context.Context) error {
	if ctx.Done() == nil {
		m.K.Run()
		return nil
	}
	// checkEvery trades cancellation latency (one batch of events,
	// microseconds of wall clock) against per-event select overhead.
	const checkEvery = 8192
	for m.K.Pending() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		for i := 0; i < checkEvery && m.K.Step(); i++ {
		}
	}
	return nil
}

// CheckDone verifies every armed core retired its whole stream; a core
// with in-flight work after the queues drained is deadlocked.
func (m *Machine) CheckDone(streams []cpu.Stream) error {
	for i, s := range streams {
		if s != nil && !m.Cores[i].Done() {
			return fmt.Errorf("machine: core %d deadlocked (inflight work remains)", i)
		}
	}
	return nil
}

// Finish builds the run's Result. It folds derived counters into the
// registry and must be called exactly once, after the final Drive.
func (m *Machine) Finish() Result {
	r := Result{
		Mode:         m.PMU.Mode,
		Cycles:       m.K.Now(),
		PEIHost:      m.Reg.Get("pei.host"),
		PEIMem:       m.Reg.Get("pei.mem"),
		PEIs:         m.Reg.Get("pei.total"),
		OffchipBytes: m.Chain.OffchipBytes(),
		DRAMAccesses: m.Reg.Get("dram.reads") + m.Reg.Get("dram.writes"),
	}
	for _, c := range m.Cores {
		r.Retired += c.Retired
		r.PerCoreRetired = append(r.PerCoreRetired, c.Retired)
	}
	// Fold PCU execution counts into the registry for the energy model
	// and reports.
	var hostOps, memOps int64
	for _, p := range m.PMU.HostPCU {
		hostOps += p.Executed
	}
	for _, p := range m.PMU.MemPCU {
		memOps += p.Executed
	}
	m.Reg.Set("pcu.host.executed", hostOps)
	m.Reg.Set("pcu.mem.executed", memOps)
	m.Reg.Set("lat.access.mean_x100", int64(100*m.Hier.AccessLatency.Mean()))
	m.Reg.Set("lat.pei.mean_x100", int64(100*m.PMU.PEILatency.Mean()))
	r.Energy = energy.Compute(m.Reg, energy.DefaultParams(), int64(r.Cycles))
	r.Stats = m.Reg.Snapshot()
	return r
}
