package pim

import (
	"fmt"

	"pimsim/internal/addr"
	"pimsim/internal/cache"
	"pimsim/internal/config"
	"pimsim/internal/hmc"
	"pimsim/internal/memlayout"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

// Mode selects the system configuration of §7: where PEIs may execute
// and whether the locality monitor is consulted.
type Mode int

const (
	// HostOnly executes every PEI on host-side PCUs (monitor disabled).
	HostOnly Mode = iota
	// PIMOnly executes every PEI on memory-side PCUs (monitor disabled).
	PIMOnly
	// LocalityAware steers each PEI by the locality monitor (and
	// balanced dispatch when enabled).
	LocalityAware
	// IdealHost models the idealized conventional machine: PEIs are
	// plain host instructions with a free, infinite PIM directory.
	IdealHost
)

func (m Mode) String() string {
	switch m {
	case HostOnly:
		return "Host-Only"
	case PIMOnly:
		return "PIM-Only"
	case LocalityAware:
		return "Locality-Aware"
	default:
		return "Ideal-Host"
	}
}

// PMU is the PEI management unit (§4.3) plus the PCUs it coordinates.
// It owns PEI atomicity (PIM directory), coherence for offloaded PEIs
// (back-invalidation / back-writeback through the hierarchy), locality
// profiling, and the dispatch decision.
type PMU struct {
	k     *sim.Kernel
	cfg   *config.Config
	reg   *stats.Registry
	hier  *cache.Hierarchy
	chain *hmc.Chain
	store *memlayout.Store

	Mode Mode

	Dir     *Directory
	Mon     *Monitor
	HostPCU []*PCU // per core
	MemPCU  []*PCU // per vault (global index)

	// PEILatency records issue-to-retire latency of every PEI.
	PEILatency *stats.Histogram

	// Per-PEI counters, resolved at construction; cOp is indexed by
	// OpKind ("pei.op.<name>").
	cTotal, cHost, cMem stats.Handle
	cFences, cBalanced  stats.Handle
	cOp                 []stats.Handle

	free []*peiTxn //peilint:allow snapcomplete pool of recycled PEI transactions: capacity, not state
}

// peiTxn carries one in-flight PEI through its execution pipeline —
// directory acquire, coherence cleanup, PCU compute, retire — as a
// pooled state machine (the stage rides in the event argument) instead
// of a chain of closures. The PMU owns the pool and releases the
// transaction in retire, before it invokes done.
type peiTxn struct {
	p        *PMU
	pei      *PEI
	core     int      // issuing host processor
	done     sim.Cont // the issuer's continuation, invoked at retire
	start    sim.Cycle
	writer   bool
	compute  int64
	outBytes int
	locked   bool // a PIM-directory entry is held (not in HMC2 mode)
	pending  int  // outstanding prerequisites before the op can ship
	pcu      *PCU
	dt       *hmc.Txn
}

// Pipeline stages, one per event hop. The host path is §4.5 Figure 4,
// the memory path Figure 5, the ideal path §7.6.
const (
	stConsult       = iota // NoC+monitor hop done; acquire the directory lock
	stGranted              // directory lock held; steer host vs memory
	stHostAcquired         // host PCU operand buffer entry held
	stHostLoaded           // target block loaded through the L1
	stHostComputed         // computation done; store back or finish
	stHostFinish           // writer store retired; finish host execution
	stMemProceed           // one of {coherence cleanup, operand transfer} done
	stSend                 // ship the PIM op (the HMC2 path enters here)
	stVaultAcquired        // vault PCU operand buffer entry held
	stVaultRead            // target block read from DRAM to the logic die
	stVaultComputed        // computation done at the vault
	stMemFinish            // response delivered to the host; retire
	stIdealGranted         // ideal: lock held at zero cost; load
	stIdealLoaded          // ideal: block loaded; plain compute delay
	stIdealComputed        // ideal: execute; store back or finish
	stIdealFinish          // ideal: writer store retired
)

func (t *peiTxn) OnEvent(arg sim.EventArg) {
	p := t.p
	switch arg.N {
	case stConsult:
		p.Dir.AcquireRegisteredEvent(t.pei.Target, t.writer, sim.Cont{H: t, Arg: sim.EventArg{N: stGranted}})
	case stGranted:
		if p.decideHost(t.pei) {
			p.executeHost(t)
		} else {
			p.executeMemory(t)
		}
	case stHostAcquired:
		p.hier.AccessEvent(t.core, t.pei.Target, false, sim.Cont{H: t, Arg: sim.EventArg{N: stHostLoaded}})
	case stHostLoaded:
		t.pcu.ComputeEvent(t.compute, sim.Cont{H: t, Arg: sim.EventArg{N: stHostComputed}})
	case stHostComputed:
		t.pei.Execute(p.store)
		if t.writer {
			p.hier.AccessEvent(t.core, t.pei.Target, true, sim.Cont{H: t, Arg: sim.EventArg{N: stHostFinish}})
			return
		}
		p.hostFinish(t)
	case stHostFinish:
		p.hostFinish(t)
	case stMemProceed:
		t.pending--
		if t.pending > 0 {
			return
		}
		p.sendPIMOp(t)
	case stSend:
		p.sendPIMOp(t)
	case stVaultAcquired:
		t.dt.Vault().ReadBlockEvent(t.dt.Loc(), sim.Cont{H: t, Arg: sim.EventArg{N: stVaultRead}})
	case stVaultRead:
		t.pcu.ComputeEvent(t.compute, sim.Cont{H: t, Arg: sim.EventArg{N: stVaultComputed}})
	case stVaultComputed:
		p.vaultComputed(t)
	case stMemFinish:
		p.memFinish(t)
	case stIdealGranted:
		p.hier.AccessEvent(t.core, t.pei.Target, false, sim.Cont{H: t, Arg: sim.EventArg{N: stIdealLoaded}})
	case stIdealLoaded:
		p.k.ScheduleEvent(sim.Cycle(t.compute), t, sim.EventArg{N: stIdealComputed})
	case stIdealComputed:
		t.pei.Execute(p.store)
		if t.writer {
			p.hier.AccessEvent(t.core, t.pei.Target, true, sim.Cont{H: t, Arg: sim.EventArg{N: stIdealFinish}})
			return
		}
		p.idealFinish(t)
	default:
		p.idealFinish(t)
	}
}

func (p *PMU) getTxn() *peiTxn {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		t.p = p
		return t
	}
	return &peiTxn{p: p}
}

// putTxn recycles a retired transaction; the nil p field marks it free
// so a double release panics instead of corrupting the pool.
func (p *PMU) putTxn(t *peiTxn) {
	if t.p == nil {
		panic("pim: PEI transaction double-released")
	}
	*t = peiTxn{}
	p.free = append(p.free, t)
}

// NewPMU wires the PMU into an existing hierarchy and chain. It installs
// the locality monitor's L3 hook.
func NewPMU(k *sim.Kernel, cfg *config.Config, hier *cache.Hierarchy, chain *hmc.Chain,
	store *memlayout.Store, mode Mode, reg *stats.Registry) *PMU {

	idealDir := cfg.IdealDirectory || mode == IdealHost
	p := &PMU{
		k: k, cfg: cfg, reg: reg, hier: hier, chain: chain, store: store,
		Mode: mode,
		Dir:  NewDirectory(k, cfg.DirectoryEntries, cfg.DirectoryLatency, idealDir, reg),
	}
	p.PEILatency = stats.NewHistogram(16, 64, 256, 1024, 4096, 16384)
	monSets := cfg.L3.Sets()
	p.Mon = NewMonitor(monSets, cfg.L3.Ways, cfg.PartialTagBits, cfg.UseIgnoreBit, cfg.IdealMonitor, reg)
	if mode == LocalityAware {
		hier.OnL3Access = p.Mon.OnCacheAccess
	}
	for c := 0; c < cfg.Cores; c++ {
		p.HostPCU = append(p.HostPCU, NewPCU(k, cfg.OperandBufferEntries, cfg.PCUExecWidth, 1))
	}
	for v := 0; v < cfg.Mapping().VaultsTotal(); v++ {
		p.MemPCU = append(p.MemPCU, NewPCU(k, cfg.OperandBufferEntries, cfg.PCUExecWidth, cfg.MemPCUClockDiv))
	}
	p.cTotal = reg.Counter("pei.total")
	p.cHost = reg.Counter("pei.host")
	p.cMem = reg.Counter("pei.mem")
	p.cFences = reg.Counter("pei.fences")
	p.cBalanced = reg.Counter("pei.balanced_to_host")
	p.cOp = make([]stats.Handle, len(Ops))
	for op := range Ops {
		p.cOp[op] = reg.Counter("pei.op." + Ops[op].Name)
	}
	return p
}

// IssueEvent starts execution of a PEI issued by core. When the PEI
// retires its Output field holds the output operand, and done runs. The
// PMU reads nothing of p after done: the issuer may recycle the record
// from then on.
func (p *PMU) IssueEvent(core int, pei *PEI, done sim.Cont) {
	if err := pei.Validate(); err != nil {
		panic(err)
	}
	p.cTotal.Inc()
	p.cOp[pei.Op].Inc()
	info := pei.Op.Info()
	t := p.getTxn()
	t.pei = pei
	t.core = core
	t.done = done
	t.start = p.k.Now()
	t.writer = info.Writer
	t.compute = info.ComputeCycles
	t.outBytes = info.OutputBytes

	if p.Mode == IdealHost {
		t.locked = true
		p.Dir.AcquireEvent(pei.Target, t.writer, sim.Cont{H: t, Arg: sim.EventArg{N: stIdealGranted}})
		return
	}
	if p.cfg.HMC2AtomicsMode {
		// HMC 2.0-style native atomic: straight to the vault, no PIM
		// directory, no coherence action (the target region is treated
		// as non-cacheable, as prior PIM proposals require). The vault's
		// inseparable-group scheduling provides per-block atomicity.
		p.k.ScheduleEvent(p.cfg.NoCLatency, t, sim.EventArg{N: stSend})
		return
	}

	// Step 1-2 (§4.5): operands to the host PCU's memory-mapped
	// registers, then the PMU consult — directory lock and locality
	// monitor in parallel; the monitor's latency is covered by the
	// crossbar hop to the PMU. Writer PEIs are registered for pfence
	// ordering at issue, before the lock request reaches the directory.
	t.locked = true
	if t.writer {
		p.Dir.RegisterWriter()
	}
	p.k.ScheduleEvent(p.cfg.NoCLatency+p.cfg.MonitorLatency, t, sim.EventArg{N: stConsult})
}

// retire observes the issue-to-retire latency, releases the transaction,
// hands the PEI back to its issuer through done, and then frees the PIM
// directory entry the PEI held. The entry is freed after done runs so
// that same-cycle events keep the order the timing results rest on.
func (p *PMU) retire(t *peiTxn) {
	p.PEILatency.Observe(int64(p.k.Now() - t.start))
	target, writer, locked, done := t.pei.Target, t.writer, t.locked, t.done
	p.putTxn(t)
	done.Invoke()
	if locked {
		p.Dir.Release(target, writer)
	}
}

// decideHost applies the mode's steering policy.
func (p *PMU) decideHost(pei *PEI) bool {
	switch p.Mode {
	case HostOnly:
		return true
	case PIMOnly:
		return false
	}
	blk := addr.BlockOf(pei.Target)
	host, miss := p.Mon.Predict(blk)
	if miss && p.cfg.BalancedDispatch {
		host = p.balancedChoice(pei.Op)
		if host {
			p.cBalanced.Inc()
		}
	}
	return host
}

// balancedChoice picks the execution side that relieves the more loaded
// off-chip direction (§7.4). Host execution costs a 16 B read request
// and an 80 B response (plus an eventual 80 B writeback request for
// writer PEIs); memory execution costs header+input on the request link
// and header+output on the response link.
func (p *PMU) balancedChoice(op OpKind) bool {
	info := op.Info()
	h := float64(p.cfg.PacketHeaderBytes)
	hostReq, hostRes := h, h+float64(addr.BlockBytes)
	if info.Writer {
		hostReq += h + float64(addr.BlockBytes)
	}
	memReq := h + float64(info.InputBytes)
	memRes := h + float64(info.OutputBytes)
	if p.chain.ResPressure() > p.chain.ReqPressure() {
		return hostRes < memRes
	}
	return hostReq < memReq
}

// executeHost runs the PEI on the issuing core's host-side PCU (§4.5,
// Figure 4): operand buffer entry, block load through the L1, compute,
// store back through the L1 for writer PEIs.
func (p *PMU) executeHost(t *peiTxn) {
	t.pcu = p.HostPCU[t.core]
	t.pcu.AcquireEvent(sim.Cont{H: t, Arg: sim.EventArg{N: stHostAcquired}})
}

func (p *PMU) hostFinish(t *peiTxn) {
	p.cHost.Inc()
	t.pcu.Release()
	p.retire(t)
}

func (p *PMU) idealFinish(t *peiTxn) {
	p.cHost.Inc()
	p.retire(t)
}

// executeMemory offloads the PEI to the vault owning its target (§4.5,
// Figure 5): back-invalidate/back-writeback the block, ship the operands,
// run on the vault PCU, and return the output operand.
func (p *PMU) executeMemory(t *peiTxn) {
	if p.Mode == LocalityAware {
		p.Mon.OnPIMIssue(addr.BlockOf(t.pei.Target))
	}

	// Steps 3 and 4 proceed in parallel: coherence cleanup of the target
	// block, and operand transfer from the host PCU's memory-mapped
	// registers to the PMU.
	t.pending = 2
	proceed := sim.Cont{H: t, Arg: sim.EventArg{N: stMemProceed}}
	if t.writer {
		p.hier.BackInvalidateEvent(t.pei.Target, proceed)
	} else {
		p.hier.BackWritebackEvent(t.pei.Target, proceed)
	}
	p.k.ScheduleEvent(p.cfg.NoCLatency, t, sim.EventArg{N: stMemProceed})
}

// sendPIMOp ships the PIM operation to its vault. The transaction rides
// along as the delivery's user payload; AtVault picks it back up on the
// logic die.
func (p *PMU) sendPIMOp(t *peiTxn) {
	p.chain.DeliverEvent(t.pei.Target, hmc.CmdPEI, len(t.pei.Input), p, sim.EventArg{Ptr: t}, sim.Cont{})
}

// AtVault implements hmc.VaultVisitor: the PIM op has crossed the chain
// and reached its vault's logic die.
func (p *PMU) AtVault(dt *hmc.Txn) {
	t := dt.User().Ptr.(*peiTxn)
	t.dt = dt
	t.pcu = p.MemPCU[dt.Vault().Index]
	t.pcu.AcquireEvent(sim.Cont{H: t, Arg: sim.EventArg{N: stVaultAcquired}})
}

func (p *PMU) vaultComputed(t *peiTxn) {
	t.pei.Execute(p.store)
	dt := t.dt
	if t.writer {
		// Posted write: the vault's DRAM controller schedules a PEI's
		// accesses as an inseparable group (§4.3), so the response needs
		// not wait for the write to restore — any later access to this
		// block at this vault orders behind it.
		dt.Vault().WriteBlockEvent(dt.Loc(), sim.Cont{})
	}
	t.dt = nil
	dt.Respond(t.outBytes, sim.Cont{H: t, Arg: sim.EventArg{N: stMemFinish}})
	t.pcu.Release()
}

func (p *PMU) memFinish(t *peiTxn) {
	p.cMem.Inc()
	p.retire(t)
}

// FenceEvent implements pfence: done runs once all previously issued
// writer PEIs (from any core) have completed.
func (p *PMU) FenceEvent(done sim.Cont) {
	p.cFences.Inc()
	p.Dir.FenceEvent(done)
}

// Summary formats the steering statistics.
func (p *PMU) Summary() string {
	host, mem := p.reg.Get("pei.host"), p.reg.Get("pei.mem")
	total := host + mem
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(mem) / float64(total)
	}
	//peilint:allow hotalloc end-of-run reporting, runs once per simulation
	return fmt.Sprintf("%s: %d PEIs (%d host, %d memory, %.1f%% PIM)", p.Mode, total, host, mem, pct)
}
