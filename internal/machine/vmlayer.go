package machine

import (
	"pimsim/internal/cpu"
	"pimsim/internal/pim"
	"pimsim/internal/sim"
	"pimsim/internal/vm"
)

// vmLayer interposes virtual-memory translation (§4.4) between the cores
// and the rest of the machine: every core access and every PEI issue
// translates through the issuing core's TLB. The layer demand-maps pages
// identity (va == pa) so the functional store is unaffected — the point
// of the simulation is the translation *traffic*: one TLB access per PEI
// and zero translation hardware below the PMU.
type vmLayer struct {
	k       *sim.Kernel
	pt      *vm.PageTable
	tlbs    []*vm.TLB
	missLat sim.Cycle

	hier cpu.MemPort
	pmu  cpu.PEIPort

	free []*vmTxn // recycled TLB-miss transactions
}

// vmTxn carries one access or PEI issue across the TLB miss (page walk)
// latency. TLB hits proceed synchronously and never touch the pool.
type vmTxn struct {
	v     *vmLayer
	core  int
	pa    uint64
	write bool
	done  sim.Cont
	pei   *pim.PEI
}

func (t *vmTxn) OnEvent(sim.EventArg) {
	v := t.v
	core, pa, write, done, pei := t.core, t.pa, t.write, t.done, t.pei
	v.putTxn(t)
	if pei != nil {
		pei.Target = pa
		v.pmu.IssueEvent(core, pei, done)
		return
	}
	v.hier.AccessEvent(core, pa, write, done)
}

func (v *vmLayer) getTxn() *vmTxn {
	if n := len(v.free); n > 0 {
		t := v.free[n-1]
		v.free = v.free[:n-1]
		t.v = v
		return t
	}
	return &vmTxn{v: v}
}

func (v *vmLayer) putTxn(t *vmTxn) {
	if t.v == nil {
		panic("machine: vm transaction double-released")
	}
	*t = vmTxn{}
	v.free = append(v.free, t)
}

// lookup demand-maps va and performs the TLB access, reporting the
// physical address and whether translation completed without a walk.
func (v *vmLayer) lookup(core int, va uint64, write bool) (pa uint64, hit bool) {
	v.pt.MapAt(va, va) // demand paging, identity
	pa, hit, err := v.tlbs[core].Lookup(va, write)
	if err != nil {
		// Unreachable under identity demand paging; a real OS would
		// handle the fault on the host (§4.4).
		panic(err)
	}
	return pa, hit
}

// AccessEvent implements cpu.MemPort.
func (v *vmLayer) AccessEvent(core int, a uint64, write bool, done sim.Cont) {
	pa, hit := v.lookup(core, a, write)
	if hit {
		v.hier.AccessEvent(core, pa, write, done)
		return
	}
	t := v.getTxn()
	t.core = core
	t.pa = pa
	t.write = write
	t.done = done
	v.k.ScheduleEvent(v.missLat, t, sim.EventArg{})
}

// IssueEvent implements cpu.PEIPort: exactly one translation per PEI —
// the single-cache-block restriction means the target never spans pages.
func (v *vmLayer) IssueEvent(core int, p *pim.PEI, done sim.Cont) {
	pa, hit := v.lookup(core, p.Target, p.Op.Info().Writer)
	if hit {
		p.Target = pa
		v.pmu.IssueEvent(core, p, done)
		return
	}
	t := v.getTxn()
	t.core = core
	t.pa = pa
	t.done = done
	t.pei = p
	v.k.ScheduleEvent(v.missLat, t, sim.EventArg{})
}

// FenceEvent implements cpu.PEIPort.
func (v *vmLayer) FenceEvent(done sim.Cont) { v.pmu.FenceEvent(done) }
