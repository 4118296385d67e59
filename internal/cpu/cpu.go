// Package cpu models the host processors: 4-issue out-of-order cores
// abstracted as an issue-width- and window-limited consumer of workload
// op streams. This is the substitution for the paper's Pin-based x86
// frontend — the core does not decode x86, it executes a stream of
// {compute, load, store, PEI, pfence} operations whose addresses come
// from the real workload data structures, preserving the memory-system
// behaviour the paper's results depend on.
package cpu

import (
	"pimsim/internal/pim"
	"pimsim/internal/sim"
)

// OpKind classifies a stream operation.
type OpKind uint8

const (
	// OpCompute occupies the issue stage for N cycles (a run of
	// non-memory instructions).
	OpCompute OpKind = iota
	// OpLoad and OpStore access the cache hierarchy at Addr.
	OpLoad
	OpStore
	// OpPEI issues the PIM-enabled instruction PEIOp at Addr; N is its
	// scalar input operand (the low InputBytes bytes, little-endian).
	OpPEI
	// OpPEIVec issues a PEI whose input operand is Vectors[N] of the
	// issuing Queue (the euclid and dot vector operands).
	OpPEIVec
	// OpFence is a pfence: issue stalls until all prior writer PEIs
	// (system-wide) complete.
	OpFence
	// OpBarrier stalls issue until all participants of the Queue's
	// Barrier have arrived (software thread barrier between supersteps).
	OpBarrier
	// OpDrain stalls issue until all of this core's in-flight operations
	// complete — a data-dependence stall on outstanding PEI outputs
	// (e.g. a histogram phase whose results the next phase consumes).
	OpDrain
)

// Op is one element of a workload stream: a pointer-free 24-byte
// record, so op buffers hold no heap references. N is a compute op's
// cycles or a PEI's input operand (OpPEI) or vector index (OpPEIVec);
// Tag labels a PEI for its stream's Sink.
type Op struct {
	Kind  OpKind
	PEIOp pim.OpKind
	Tag   uint32
	Addr  uint64
	N     uint64
}

// Sink receives a stream's PEIs as they retire, with the output operand
// in p.Output and the tag the stream pushed in p.Tag. The record is
// recycled when PEIDone returns, so a sink copies what it keeps.
type Sink interface {
	PEIDone(p *pim.PEI)
}

// MemPort is the hierarchy interface the core needs (satisfied by
// *cache.Hierarchy).
type MemPort interface {
	AccessEvent(core int, a uint64, write bool, done sim.Cont)
}

// PEIPort is the PMU interface the core needs (satisfied by *pim.PMU).
type PEIPort interface {
	IssueEvent(core int, p *pim.PEI, done sim.Cont)
	FenceEvent(done sim.Cont)
}

// Core executes one Stream against the memory system.
type Core struct {
	ID int

	k          *sim.Kernel
	issueWidth int
	window     int

	mem MemPort
	pmu PEIPort

	stream   Stream //peilint:allow snapcomplete re-armed by Run with the rebuilt workload's stream; the generator's position is coded by the workload's Snap
	inflight int
	finished bool //peilint:allow snapcomplete cleared by Run and re-derived as the resumed stream drains
	// blocked marks the issue stage stalled on a fence, barrier, or
	// multi-cycle compute op; completions must not resume issue early.
	blocked bool
	// draining marks an OpDrain waiting for in-flight ops to retire.
	draining bool

	curCycle        sim.Cycle
	issuedThisCycle int
	pumpScheduled   bool

	// Retired counts completed ops; RetiredPEIs the PEI subset.
	Retired     int64
	RetiredPEIs int64
	issued      int64

	// peiFree recycles PEI records: one is drawn at issue and returned
	// at retire, so the window bounds how many ever exist.
	peiFree []*peiRec //peilint:allow snapcomplete pool of recycled PEI records: capacity, not state (empty of in-flight PEIs at a phase boundary)
}

// peiRec is a pooled in-flight PEI: the record the core hands the PMU
// and the continuation the PMU invokes at retire, so the record itself
// tells the core which PEI came back.
type peiRec struct {
	pim.PEI
	c *Core
}

// OnEvent implements sim.Handler: the PEI retired at the PMU.
func (r *peiRec) OnEvent(sim.EventArg) { r.c.peiDone(r) }

// NewCore creates a core.
func NewCore(id int, k *sim.Kernel, issueWidth, window int, mem MemPort, pmu PEIPort) *Core {
	if issueWidth <= 0 || window <= 0 {
		panic("cpu: bad core parameters")
	}
	return &Core{ID: id, k: k, issueWidth: issueWidth, window: window, mem: mem, pmu: pmu}
}

// Core event stages: the core itself is the handler for every per-op
// completion but a PEI's (its pooled record is), so issuing a load,
// store, PEI, compute stall, fence, or barrier arrival costs no
// allocation.
const (
	coreEvPump        = iota // scheduled pump (issue-width or barrier resume)
	coreEvUnblock            // multi-cycle compute retired; resume issue
	coreEvFenceDone          // pfence drained; retire it and resume issue
	coreEvMemDone            // a load/store completed
	coreEvBarrierDone        // every participant reached the barrier; resume
)

// OnEvent implements sim.Handler.
func (c *Core) OnEvent(arg sim.EventArg) {
	switch arg.N {
	case coreEvPump:
		c.pumpScheduled = false
		c.pump()
	case coreEvUnblock:
		c.blocked = false
		c.pump()
	case coreEvFenceDone:
		c.blocked = false
		c.Retired++
		c.pump()
	case coreEvMemDone:
		c.inflight--
		c.Retired++
		c.pump()
	default: // coreEvBarrierDone
		c.blocked = false
		c.Retired++
		c.schedulePump(0)
	}
}

// issuePEI fills a record from op and hands it to the PMU with the
// record as the retire continuation; it comes back through peiDone.
func (c *Core) issuePEI(op Op) {
	var r *peiRec
	if n := len(c.peiFree); n > 0 {
		r = c.peiFree[n-1]
		c.peiFree = c.peiFree[:n-1]
	} else {
		r = &peiRec{c: c}
	}
	p := &r.PEI
	p.Op, p.Target, p.Tag = op.PEIOp, op.Addr, op.Tag
	if op.Kind == OpPEIVec {
		p.Input = c.stream.Vectors[op.N]
	} else {
		p.SetInputWord(op.N)
	}
	c.pmu.IssueEvent(c.ID, p, sim.Cont{H: r})
}

// peiDone retires a PEI the PMU handed back: the stream's sink sees it,
// then the record is cleared, so it carries no operand or tag into its
// next life, and returned to the free list.
func (c *Core) peiDone(r *peiRec) {
	c.inflight--
	c.Retired++
	c.RetiredPEIs++
	if c.stream.Sink != nil {
		c.stream.Sink.PEIDone(&r.PEI)
	}
	r.PEI = pim.PEI{}
	c.peiFree = append(c.peiFree, r)
	c.pump()
}

// Run starts executing the stream; the caller then drives the kernel.
func (c *Core) Run(s Stream) {
	c.stream = s
	c.finished = false
	c.pump()
}

// Done reports whether the core has retired everything.
func (c *Core) Done() bool { return c.finished && c.inflight == 0 }

func (c *Core) schedulePump(delay sim.Cycle) {
	if c.pumpScheduled {
		return
	}
	c.pumpScheduled = true
	c.k.ScheduleEvent(delay, c, sim.EventArg{N: coreEvPump})
}

// pump issues ops until the window fills, the cycle's issue budget is
// spent, or the stream blocks/ends.
func (c *Core) pump() {
	if c.stream == nil || c.finished {
		return
	}
	if c.blocked {
		return
	}
	if c.draining {
		if c.inflight > 0 {
			return
		}
		c.draining = false
		c.Retired++
	}
	for {
		if c.inflight >= c.window {
			return // resumed by a completion
		}
		now := c.k.Now()
		if now != c.curCycle {
			c.curCycle = now
			c.issuedThisCycle = 0
		}
		if c.issuedThisCycle >= c.issueWidth {
			c.schedulePump(1)
			return
		}
		op, ok := c.stream.Next()
		if !ok {
			c.finished = true
			return
		}
		c.issued++
		c.issuedThisCycle++
		switch op.Kind {
		case OpCompute:
			c.Retired++
			if op.N > 0 {
				c.blocked = true
				c.k.ScheduleEvent(sim.Cycle(op.N), c, sim.EventArg{N: coreEvUnblock})
				return
			}
		case OpLoad, OpStore:
			c.inflight++
			write := op.Kind == OpStore
			c.mem.AccessEvent(c.ID, op.Addr, write, sim.Cont{H: c, Arg: sim.EventArg{N: coreEvMemDone}})
		case OpPEI, OpPEIVec:
			c.inflight++
			c.issuePEI(op)
		case OpFence:
			// pfence blocks the issue stage; in-flight ops may drain
			// meanwhile.
			c.blocked = true
			c.pmu.FenceEvent(sim.Cont{H: c, Arg: sim.EventArg{N: coreEvFenceDone}})
			return
		case OpDrain:
			if c.inflight == 0 {
				c.Retired++
				continue
			}
			c.draining = true
			return
		case OpBarrier:
			c.blocked = true
			c.stream.Barrier.Arrive(sim.Cont{H: c, Arg: sim.EventArg{N: coreEvBarrierDone}})
			return
		}
	}
}
