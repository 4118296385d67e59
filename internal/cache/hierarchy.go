package cache

import (
	"pimsim/internal/addr"
	"pimsim/internal/config"
	"pimsim/internal/hmc"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

// Hierarchy is the coherent three-level inclusive cache hierarchy:
// per-core private L1D and L2, a crossbar, and a banked shared L3 with
// directory bits (sharer masks) implementing MESI among the private
// caches. Misses go to the HMC chain.
//
// It also provides the two primitives the PMU needs for memory-side PEI
// coherence: BackInvalidateEvent (writer PEIs) and BackWritebackEvent
// (reader PEIs).
type Hierarchy struct {
	k     *sim.Kernel
	cfg   *config.Config
	chain *hmc.Chain
	reg   *stats.Registry

	l1, l2 []*Cache // per core
	l3     []*Cache // per bank

	coreOut []*sim.Link // per-core request port into the crossbar
	coreIn  []*sim.Link // per-core response port out of the crossbar
	bankSrv []*sim.Link // per-bank L3 service port

	privMSHR     []map[uint64]*privMSHR // per core, keyed by block
	privPend     []sim.FIFO[pendReq]    // per core, requests waiting for an MSHR slot
	l3MSHR       []map[uint64]*l3MSHR   // per bank, keyed by block
	perBankMSHRs int

	// Free lists for the pooled transaction records that replace the
	// closure chains of the event hot path; see DESIGN.md §11.
	freeAccess []*accessTxn //peilint:allow snapcomplete pool of recycled records: capacity, not simulated state
	freePriv   []*privMSHR  //peilint:allow snapcomplete pool of recycled records: capacity, not simulated state
	freeL3     []*l3MSHR    //peilint:allow snapcomplete pool of recycled records: capacity, not simulated state
	freeCoh    []*cohTxn    //peilint:allow snapcomplete pool of recycled records: capacity, not simulated state

	// Pre-resolved counter handles: every per-event increment on the
	// simulated hot path goes through one of these, never a string key.
	cL1Hits, cL1Misses, cL1Writebacks        stats.Handle
	cL2Hits, cL2Misses, cL2Writebacks        stats.Handle
	cL2Prefetches, cL2MSHRMerges             stats.Handle
	cL2MSHRStalls                            stats.Handle
	cL3Hits, cL3Misses, cL3Writebacks        stats.Handle
	cL3MSHRMerges, cL3MSHRStalls             stats.Handle
	cL3OrphanWritebacks, cL3BackInvals       stats.Handle
	cCohUpgrades, cCohInvals, cCohDowngrades stats.Handle
	cPMUBackWritebacks, cPMUBackInvals       stats.Handle

	// OnL3Access, if non-nil, observes every L3 lookup (hit or miss) by
	// block number. The PMU's locality monitor hangs off this hook.
	OnL3Access func(blk uint64)

	// AccessLatency records the retire latency of every AccessEvent call
	// (loads and stores alike), bucketed at L1/L2/L3/memory scales.
	AccessLatency *stats.Histogram
}

// accessTxn is a pooled load/store walking the private levels: L1
// lookup, L2 lookup, retire. The hierarchy owns the pool; the retire
// stage releases the record before invoking the caller's continuation.
type accessTxn struct {
	h     *Hierarchy
	core  int
	a     uint64
	blk   uint64
	write bool
	start sim.Cycle
	done  sim.Cont
}

const (
	acStageL1     = iota // L1 array latency elapsed; look up
	acStageL2            // L2 array latency elapsed; look up
	acStageRetire        // access complete: observe latency, notify caller
)

func (t *accessTxn) OnEvent(arg sim.EventArg) {
	switch arg.N {
	case acStageL1:
		t.h.accessL1(t)
	case acStageL2:
		t.h.accessL2(t)
	default:
		t.h.retireAccess(t)
	}
}

// privWaiter is one request merged into a private MSHR.
type privWaiter struct {
	write bool
	done  sim.Cont
}

// pendReq is a request parked behind a full private MSHR file; it is
// retried from scratch when a slot frees.
type pendReq struct {
	blk   uint64
	write bool
	done  sim.Cont
}

// privMSHR is a pooled private-cache miss transaction: it is both the
// MSHR entry (merge target) and the handler carrying the miss across
// the crossbar, through the L3 bank, and back with the fill. The
// hierarchy releases it in the fill stage.
type privMSHR struct {
	h         *Hierarchy
	core      int
	blk       uint64
	write     bool // ownership requested when the L3 access was launched
	exclusive bool // response: requester will be the sole sharer
	waiters   []privWaiter
}

const (
	pmStageAtXbar  = iota // request header crossed the crossbar
	pmStageAtBank         // bank service slot granted
	pmStageLookup         // L3 array latency elapsed; run the lookup
	pmStageRespond        // bank sources the data; send the response
	pmStageFill           // response at the core: fill, retire waiters
)

func (m *privMSHR) OnEvent(arg sim.EventArg) {
	h := m.h
	switch arg.N {
	case pmStageAtXbar:
		h.bankSrv[h.bankOf(m.blk)].SendEvent(1, m, sim.EventArg{N: pmStageAtBank})
	case pmStageAtBank:
		h.k.ScheduleEvent(h.cfg.L3.LatencyCycles, m, sim.EventArg{N: pmStageLookup})
	case pmStageLookup:
		h.l3Access(m)
	case pmStageRespond:
		h.completePrivateMiss(m)
	default:
		h.finishPrivateMiss(m)
	}
}

// l3MSHR is a pooled L3 miss transaction; its event fires when the
// memory read returns, filling the bank and all merged private misses.
type l3MSHR struct {
	h       *Hierarchy
	bank    int
	blk     uint64
	waiters []*privMSHR
}

func (m *l3MSHR) OnEvent(sim.EventArg) { m.h.fillL3(m) }

// cohTxn is a pooled PMU coherence request (BackWriteback or
// BackInvalidate) crossing the L3 and, when dirty data exists, memory.
type cohTxn struct {
	h     *Hierarchy
	a     uint64
	inval bool
	done  sim.Cont
}

const (
	cohStageLookup = iota // L3 latency elapsed; flush or invalidate
	cohStageDone          // memory write restored; notify the PMU
)

func (t *cohTxn) OnEvent(arg sim.EventArg) {
	switch arg.N {
	case cohStageLookup:
		t.h.backCohLookup(t)
	default:
		done := t.done
		t.h.putCoh(t)
		done.Invoke()
	}
}

// l3DirtyNotice is the hierarchy acting as the handler for dirty-victim
// writeback messages arriving at the L3; the victim block rides in
// arg.N so the notification needs no transaction record.
type l3DirtyNotice Hierarchy

func (h *l3DirtyNotice) OnEvent(arg sim.EventArg) {
	(*Hierarchy)(h).markL3Dirty(uint64(arg.N))
}

// NewHierarchy builds the hierarchy for cfg over the given memory chain.
func NewHierarchy(k *sim.Kernel, cfg *config.Config, chain *hmc.Chain, reg *stats.Registry) *Hierarchy {
	h := &Hierarchy{k: k, cfg: cfg, chain: chain, reg: reg, privPend: make([]sim.FIFO[pendReq], cfg.Cores)}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, New(cfg.L1.Sets(), cfg.L1.Ways))
		h.l2 = append(h.l2, New(cfg.L2.Sets(), cfg.L2.Ways))
		h.coreOut = append(h.coreOut, sim.NewLink(k, cfg.NoCBytesPerCycle, cfg.NoCLatency))
		h.coreIn = append(h.coreIn, sim.NewLink(k, cfg.NoCBytesPerCycle, cfg.NoCLatency))
		h.privMSHR = append(h.privMSHR, make(map[uint64]*privMSHR))
	}
	setsPerBank := cfg.L3.Sets() / cfg.L3Banks
	for b := 0; b < cfg.L3Banks; b++ {
		h.l3 = append(h.l3, New(setsPerBank, cfg.L3.Ways))
		// A bank accepts one access per 2 CPU cycles (2 GHz array).
		h.bankSrv = append(h.bankSrv, sim.NewLink(k, 0.5, 0))
		h.l3MSHR = append(h.l3MSHR, make(map[uint64]*l3MSHR))
	}
	h.perBankMSHRs = cfg.L3.MSHRs / cfg.L3Banks
	if h.perBankMSHRs < 1 {
		h.perBankMSHRs = 1
	}
	h.AccessLatency = stats.NewHistogram(4, 16, 64, 256, 1024, 4096)
	h.cL1Hits = reg.Counter("l1.hits")
	h.cL1Misses = reg.Counter("l1.misses")
	h.cL1Writebacks = reg.Counter("l1.writebacks")
	h.cL2Hits = reg.Counter("l2.hits")
	h.cL2Misses = reg.Counter("l2.misses")
	h.cL2Writebacks = reg.Counter("l2.writebacks")
	h.cL2Prefetches = reg.Counter("l2.prefetches")
	h.cL2MSHRMerges = reg.Counter("l2.mshr_merges")
	h.cL2MSHRStalls = reg.Counter("l2.mshr_stalls")
	h.cL3Hits = reg.Counter("l3.hits")
	h.cL3Misses = reg.Counter("l3.misses")
	h.cL3Writebacks = reg.Counter("l3.writebacks")
	h.cL3MSHRMerges = reg.Counter("l3.mshr_merges")
	h.cL3MSHRStalls = reg.Counter("l3.mshr_stalls")
	h.cL3OrphanWritebacks = reg.Counter("l3.orphan_writebacks")
	h.cL3BackInvals = reg.Counter("l3.back_invalidations")
	h.cCohUpgrades = reg.Counter("coh.upgrades")
	h.cCohInvals = reg.Counter("coh.invalidations")
	h.cCohDowngrades = reg.Counter("coh.downgrades")
	h.cPMUBackWritebacks = reg.Counter("pmu.back_writebacks")
	h.cPMUBackInvals = reg.Counter("pmu.back_invalidations")
	return h
}

func (h *Hierarchy) bankOf(blk uint64) int     { return int(blk % uint64(h.cfg.L3Banks)) }
func (h *Hierarchy) bankKey(blk uint64) uint64 { return blk / uint64(h.cfg.L3Banks) }
func blockAddr(blk uint64) uint64              { return blk << addr.BlockShift }

// L1 and L2 expose per-core caches; L3Bank exposes a bank (for tests and
// the locality monitor's geometry).
func (h *Hierarchy) L1(core int) *Cache  { return h.l1[core] }
func (h *Hierarchy) L2(core int) *Cache  { return h.l2[core] }
func (h *Hierarchy) L3Bank(b int) *Cache { return h.l3[b] }

// Pool accessors. Each record type parks a nil h field while free, so
// releasing the same record twice panics instead of corrupting the
// free list (see DESIGN.md §11 for the lifecycle rules).

func (h *Hierarchy) getAccess() *accessTxn {
	if n := len(h.freeAccess); n > 0 {
		t := h.freeAccess[n-1]
		h.freeAccess = h.freeAccess[:n-1]
		t.h = h
		return t
	}
	return &accessTxn{h: h}
}

func (h *Hierarchy) putAccess(t *accessTxn) {
	if t.h == nil {
		panic("cache: access transaction double-released")
	}
	*t = accessTxn{}
	h.freeAccess = append(h.freeAccess, t)
}

func (h *Hierarchy) getPriv() *privMSHR {
	if n := len(h.freePriv); n > 0 {
		m := h.freePriv[n-1]
		h.freePriv = h.freePriv[:n-1]
		m.h = h
		return m
	}
	return &privMSHR{h: h}
}

func (h *Hierarchy) putPriv(m *privMSHR) {
	if m.h == nil {
		panic("cache: private MSHR double-released")
	}
	waiters := m.waiters[:0]
	*m = privMSHR{waiters: waiters}
	h.freePriv = append(h.freePriv, m)
}

func (h *Hierarchy) getL3() *l3MSHR {
	if n := len(h.freeL3); n > 0 {
		m := h.freeL3[n-1]
		h.freeL3 = h.freeL3[:n-1]
		m.h = h
		return m
	}
	return &l3MSHR{h: h}
}

func (h *Hierarchy) putL3(m *l3MSHR) {
	if m.h == nil {
		panic("cache: L3 MSHR double-released")
	}
	waiters := m.waiters[:0]
	*m = l3MSHR{waiters: waiters}
	h.freeL3 = append(h.freeL3, m)
}

func (h *Hierarchy) getCoh() *cohTxn {
	if n := len(h.freeCoh); n > 0 {
		t := h.freeCoh[n-1]
		h.freeCoh = h.freeCoh[:n-1]
		t.h = h
		return t
	}
	return &cohTxn{h: h}
}

func (h *Hierarchy) putCoh(t *cohTxn) {
	if t.h == nil {
		panic("cache: coherence transaction double-released")
	}
	*t = cohTxn{}
	h.freeCoh = append(h.freeCoh, t)
}

// AccessEvent performs a load (write=false) or store (write=true) of the
// block containing a on behalf of core. done is invoked when the access
// retires (data available / ownership granted). The walk's state lives
// in a pooled transaction, so an access allocates nothing.
func (h *Hierarchy) AccessEvent(core int, a uint64, write bool, done sim.Cont) {
	t := h.getAccess()
	t.core = core
	t.a = a
	t.blk = addr.BlockOf(a)
	t.write = write
	t.start = h.k.Now()
	t.done = done
	h.k.ScheduleEvent(h.cfg.L1.LatencyCycles, t, sim.EventArg{N: acStageL1})
}

func (h *Hierarchy) accessL1(t *accessTxn) {
	core, blk, write := t.core, t.blk, t.write
	if l := h.l1[core].Lookup(blk); l != nil {
		h.cL1Hits.Inc()
		if !write || l.State >= Exclusive {
			if write {
				l.State = Modified
				l.Dirty = true
			}
			h.retireAccess(t)
			return
		}
		// Write to a Shared line: upgrade through the L3.
		h.cCohUpgrades.Inc()
		h.privateMissEvent(core, blk, true, sim.Cont{H: t, Arg: sim.EventArg{N: acStageRetire}})
		return
	}
	h.cL1Misses.Inc()
	h.k.ScheduleEvent(h.cfg.L2.LatencyCycles, t, sim.EventArg{N: acStageL2})
}

func (h *Hierarchy) accessL2(t *accessTxn) {
	core, blk, write := t.core, t.blk, t.write
	if l := h.l2[core].Lookup(blk); l != nil {
		h.cL2Hits.Inc()
		if !write || l.State >= Exclusive {
			st := l.State
			if write {
				st = Modified
				l.State = Modified
				l.Dirty = true
			}
			h.fillL1(core, blk, st, write)
			h.retireAccess(t)
			return
		}
		h.cCohUpgrades.Inc()
		h.privateMissEvent(core, blk, true, sim.Cont{H: t, Arg: sim.EventArg{N: acStageRetire}})
		return
	}
	h.cL2Misses.Inc()
	h.privateMissEvent(core, blk, write, sim.Cont{H: t, Arg: sim.EventArg{N: acStageRetire}})
	for i := 1; i <= h.cfg.PrefetchDepth; i++ {
		h.prefetchBlock(core, blk+uint64(i))
	}
}

// retireAccess completes an access: it observes the retire latency,
// releases the transaction, and then notifies the caller.
func (h *Hierarchy) retireAccess(t *accessTxn) {
	h.AccessLatency.Observe(int64(h.k.Now() - t.start))
	done := t.done
	h.putAccess(t)
	done.Invoke()
}

// fillL1 installs blk in core's L1, handling the victim writeback into
// the L2 (dirty victims just mark the L2 copy dirty; no data movement is
// modeled between the private levels).
func (h *Hierarchy) fillL1(core int, blk uint64, st State, dirty bool) {
	c := h.l1[core]
	if l := c.Peek(blk); l != nil {
		l.State = st
		l.Dirty = l.Dirty || dirty
		return
	}
	v := c.Victim(blk)
	if v.State != Invalid && v.Dirty {
		if l2 := h.l2[core].Peek(v.Key); l2 != nil {
			l2.Dirty = true
			l2.State = Modified
		}
		h.cL1Writebacks.Inc()
	}
	c.Insert(v, blk, st)
	l := c.Peek(blk)
	l.Dirty = dirty
}

// fillL2 installs blk in core's L2. Dirty victims are written back to
// the L3 over the crossbar (80 B data message); the L1 copy of the
// victim is invalidated to preserve inclusion.
func (h *Hierarchy) fillL2(core int, blk uint64, st State, dirty bool) {
	c := h.l2[core]
	if l := c.Peek(blk); l != nil {
		l.State = st
		l.Dirty = l.Dirty || dirty
		return
	}
	v := c.Victim(blk)
	if v.State != Invalid {
		if l1, ok := h.l1[core].Invalidate(v.Key); ok && l1.Dirty {
			v.Dirty = true
		}
		if v.Dirty {
			h.cL2Writebacks.Inc()
			h.coreOut[core].SendEvent(addr.BlockBytes+h.cfg.PacketHeaderBytes,
				(*l3DirtyNotice)(h), sim.EventArg{N: int64(v.Key)})
		}
	}
	c.Insert(v, blk, st)
	l := c.Peek(blk)
	l.Dirty = dirty
}

// markL3Dirty records a private writeback arriving at the L3. If the
// line has already been evicted (race with an L3 eviction), the data
// goes straight to memory.
func (h *Hierarchy) markL3Dirty(blk uint64) {
	b := h.bankOf(blk)
	if l := h.l3[b].Peek(h.bankKey(blk)); l != nil {
		l.Dirty = true
		return
	}
	h.cL3OrphanWritebacks.Inc()
	h.chain.WriteEvent(blockAddr(blk), sim.Cont{})
}

// prefetchBlock issues a next-line prefetch into core's private caches:
// a normal fill with no waiting consumer. Prefetches skip blocks already
// present or in flight and do not recursively trigger prefetching.
func (h *Hierarchy) prefetchBlock(core int, blk uint64) {
	if h.l1[core].Peek(blk) != nil || h.l2[core].Peek(blk) != nil {
		return
	}
	if _, inFlight := h.privMSHR[core][blk]; inFlight {
		return
	}
	if len(h.privMSHR[core]) >= h.cfg.L2.MSHRs {
		return // never stall demand traffic for a prefetch
	}
	h.cL2Prefetches.Inc()
	h.privateMissEvent(core, blk, false, sim.Cont{})
}

// privateMissEvent merges the request into the core's MSHRs, launching
// an L3 access for the first miss to each block. The launching MSHR is
// a pooled transaction that carries the miss through the crossbar and
// the bank itself (see privMSHR).
func (h *Hierarchy) privateMissEvent(core int, blk uint64, write bool, done sim.Cont) {
	if m, ok := h.privMSHR[core][blk]; ok {
		h.cL2MSHRMerges.Inc()
		m.waiters = append(m.waiters, privWaiter{write: write, done: done})
		return
	}
	if len(h.privMSHR[core]) >= h.cfg.L2.MSHRs {
		h.cL2MSHRStalls.Inc()
		// Parked requests are retried from scratch once a slot frees;
		// the retry recomputes everything.
		h.privPend[core].Push(pendReq{blk: blk, write: write, done: done})
		return
	}
	m := h.getPriv()
	m.core = core
	m.blk = blk
	m.write = write
	m.waiters = append(m.waiters, privWaiter{write: write, done: done})
	h.privMSHR[core][blk] = m
	// Request message to the L3 bank over the crossbar.
	h.coreOut[core].SendEvent(h.cfg.PacketHeaderBytes, m, sim.EventArg{N: pmStageAtXbar})
}

// completePrivateMiss sends the data response back to the requesting
// core; the fill happens when it arrives (finishPrivateMiss).
func (h *Hierarchy) completePrivateMiss(m *privMSHR) {
	h.coreIn[m.core].SendEvent(addr.BlockBytes+h.cfg.PacketHeaderBytes, m, sim.EventArg{N: pmStageFill})
}

// finishPrivateMiss fills the core's private caches and retires all
// merged waiters, then admits one parked request and releases the MSHR.
func (h *Hierarchy) finishPrivateMiss(m *privMSHR) {
	core, blk := m.core, m.blk
	if h.privMSHR[core][blk] != m {
		return
	}
	delete(h.privMSHR[core], blk)
	st := Shared
	if m.write {
		st = Modified
	} else if m.exclusive {
		st = Exclusive
	}
	h.fillL2(core, blk, st, m.write)
	h.fillL1(core, blk, st, m.write)
	for _, w := range m.waiters {
		if w.write && !m.write {
			// A store merged into a read miss still needs ownership;
			// replay it (it will hit Shared in L1 and take the upgrade
			// path).
			h.AccessEvent(core, blockAddr(blk), true, w.done)
			continue
		}
		w.done.Invoke()
	}
	h.putPriv(m)
	// Admit one pending request now that a slot is free.
	if h.privPend[core].Len() > 0 {
		next := h.privPend[core].Pop()
		h.privateMissEvent(core, next.blk, next.write, next.done)
	}
}

// l3Access looks up the requesting MSHR's block in the L3, resolving
// coherence with other cores' private caches, and schedules the
// response (m.exclusive reports whether the requester will be the sole
// sharer) once the bank can source the data.
func (h *Hierarchy) l3Access(req *privMSHR) {
	core, blk, write := req.core, req.blk, req.write
	if h.OnL3Access != nil {
		h.OnL3Access(blk)
	}
	bank := h.bankOf(blk)
	key := h.bankKey(blk)
	// Join an in-flight fill if one exists.
	if m, ok := h.l3MSHR[bank][blk]; ok {
		h.cL3MSHRMerges.Inc()
		m.waiters = append(m.waiters, req)
		return
	}
	if l := h.l3[bank].Lookup(key); l != nil {
		h.cL3Hits.Inc()
		delay := sim.Cycle(0)
		others := l.Sharers &^ (1 << uint(core))
		if others != 0 {
			if write {
				// Invalidate all other sharers.
				delay = 2 * h.cfg.NoCLatency
				for c := 0; c < h.cfg.Cores; c++ {
					if others&(1<<uint(c)) == 0 {
						continue
					}
					h.cCohInvals.Inc()
					if l1, ok := h.l1[c].Invalidate(blk); ok && l1.Dirty {
						l.Dirty = true
					}
					if l2, ok := h.l2[c].Invalidate(blk); ok && l2.Dirty {
						l.Dirty = true
					}
				}
				l.Sharers = 0
			} else {
				// Downgrade other sharers' E/M copies to Shared so no
				// one can write silently; dirty data is pulled into the
				// bank (costing a snoop round trip).
				for c := 0; c < h.cfg.Cores; c++ {
					if others&(1<<uint(c)) == 0 {
						continue
					}
					dirty := false
					if l1 := h.l1[c].Peek(blk); l1 != nil && l1.State >= Exclusive {
						dirty = dirty || l1.Dirty
						l1.State, l1.Dirty = Shared, false
					}
					if l2 := h.l2[c].Peek(blk); l2 != nil && l2.State >= Exclusive {
						dirty = dirty || l2.Dirty
						l2.State, l2.Dirty = Shared, false
					}
					if dirty {
						h.cCohDowngrades.Inc()
						l.Dirty = true
						delay = 2 * h.cfg.NoCLatency
					}
				}
			}
		}
		if write {
			l.Dirty = true
			l.Sharers = 1 << uint(core)
		} else {
			l.Sharers |= 1 << uint(core)
		}
		req.exclusive = l.Sharers == 1<<uint(core)
		h.k.ScheduleEvent(delay, req, sim.EventArg{N: pmStageRespond})
		return
	}
	h.cL3Misses.Inc()
	if len(h.l3MSHR[bank]) >= h.perBankMSHRs {
		// All MSHRs busy: retry after a short backoff.
		h.cL3MSHRStalls.Inc()
		h.k.ScheduleEvent(h.cfg.L3.LatencyCycles, req, sim.EventArg{N: pmStageLookup})
		return
	}
	m := h.getL3()
	m.bank = bank
	m.blk = blk
	m.waiters = append(m.waiters, req)
	h.l3MSHR[bank][blk] = m
	// Reserve the frame now so racing misses to the same set pick other
	// victims; evict the old occupant first.
	v := h.l3[bank].Victim(key)
	if v.State != Invalid {
		h.evictL3(bank, v)
	}
	h.l3[bank].Insert(v, key, Shared)
	h.chain.ReadEvent(blockAddr(blk), sim.Cont{H: m})
}

// fillL3 runs when the memory read for an L3 miss returns: it installs
// the line's sharers, responds to every merged private miss, and
// releases the MSHR.
func (h *Hierarchy) fillL3(m *l3MSHR) {
	bank, blk := m.bank, m.blk
	key := h.bankKey(blk)
	delete(h.l3MSHR[bank], blk)
	l := h.l3[bank].Peek(key)
	if l == nil {
		// Evicted while in flight (pathological); treat as a fresh
		// bypass fill: respond without caching.
		for _, w := range m.waiters {
			w.exclusive = false
			h.completePrivateMiss(w)
		}
		h.putL3(m)
		return
	}
	for _, w := range m.waiters {
		if w.write {
			l.Dirty = true
			l.Sharers = 1 << uint(w.core)
		} else {
			l.Sharers |= 1 << uint(w.core)
		}
	}
	for _, w := range m.waiters {
		w.exclusive = l.Sharers == 1<<uint(w.core)
		h.completePrivateMiss(w)
	}
	h.putL3(m)
}

// evictL3 removes a victim line from the L3: back-invalidates all
// private copies (inclusion) and writes dirty data to memory.
func (h *Hierarchy) evictL3(bank int, v *Line) {
	blk := v.Key*uint64(h.cfg.L3Banks) + uint64(bank)
	dirty := v.Dirty
	for c := 0; c < h.cfg.Cores; c++ {
		if v.Sharers&(1<<uint(c)) == 0 {
			continue
		}
		h.cL3BackInvals.Inc()
		if l1, ok := h.l1[c].Invalidate(blk); ok && l1.Dirty {
			dirty = true
		}
		if l2, ok := h.l2[c].Invalidate(blk); ok && l2.Dirty {
			dirty = true
		}
	}
	if dirty {
		h.cL3Writebacks.Inc()
		h.chain.WriteEvent(blockAddr(blk), sim.Cont{})
	}
}

// BackWritebackEvent flushes any dirty copy of a's block to main memory
// while letting caches keep clean copies. The PMU issues this before
// offloading a reader PEI (§4.3). done runs when memory holds the latest
// data.
func (h *Hierarchy) BackWritebackEvent(a uint64, done sim.Cont) {
	h.cPMUBackWritebacks.Inc()
	t := h.getCoh()
	t.a = a
	t.done = done
	h.k.ScheduleEvent(h.cfg.L3.LatencyCycles, t, sim.EventArg{N: cohStageLookup})
}

// BackInvalidateEvent removes a's block from the entire hierarchy,
// writing dirty data to memory first. The PMU issues this before
// offloading a writer PEI (§4.3). done runs when no cache holds the
// block and memory is current.
func (h *Hierarchy) BackInvalidateEvent(a uint64, done sim.Cont) {
	h.cPMUBackInvals.Inc()
	t := h.getCoh()
	t.a = a
	t.inval = true
	t.done = done
	h.k.ScheduleEvent(h.cfg.L3.LatencyCycles, t, sim.EventArg{N: cohStageLookup})
}

// backCohLookup performs the L3-side work of a BackWriteback or
// BackInvalidate after the bank latency: flush (or invalidate) every
// cached copy, then write dirty data to memory before completing.
func (h *Hierarchy) backCohLookup(t *cohTxn) {
	a := t.a
	blk := addr.BlockOf(a)
	bank := h.bankOf(blk)
	dirty := false
	if t.inval {
		if l, ok := h.l3[bank].Invalidate(h.bankKey(blk)); ok {
			dirty = l.Dirty
			for c := 0; c < h.cfg.Cores; c++ {
				if l.Sharers&(1<<uint(c)) == 0 {
					continue
				}
				if l1, ok := h.l1[c].Invalidate(blk); ok && l1.Dirty {
					dirty = true
				}
				if l2, ok := h.l2[c].Invalidate(blk); ok && l2.Dirty {
					dirty = true
				}
			}
		}
	} else if l := h.l3[bank].Peek(h.bankKey(blk)); l != nil {
		if l.Dirty {
			l.Dirty = false
			dirty = true
		}
		for c := 0; c < h.cfg.Cores; c++ {
			if l.Sharers&(1<<uint(c)) == 0 {
				continue
			}
			if l1 := h.l1[c].Peek(blk); l1 != nil && l1.Dirty {
				l1.State, l1.Dirty, dirty = Shared, false, true
			}
			if l2 := h.l2[c].Peek(blk); l2 != nil && l2.Dirty {
				l2.State, l2.Dirty, dirty = Shared, false, true
			}
		}
	}
	if dirty {
		h.chain.WriteEvent(addr.BlockBase(a), sim.Cont{H: t, Arg: sim.EventArg{N: cohStageDone}})
		return
	}
	done := t.done
	h.putCoh(t)
	done.Invoke()
}

// CachedAnywhere reports whether a's block is present at any level (test
// helper and invariant probe).
func (h *Hierarchy) CachedAnywhere(a uint64) bool {
	blk := addr.BlockOf(a)
	if h.l3[h.bankOf(blk)].Peek(h.bankKey(blk)) != nil {
		return true
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if h.l1[c].Peek(blk) != nil || h.l2[c].Peek(blk) != nil {
			return true
		}
	}
	return false
}
