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
	// OpCompute occupies the issue stage for Cycles cycles (a run of
	// non-memory instructions).
	OpCompute OpKind = iota
	// OpLoad and OpStore access the cache hierarchy at Addr.
	OpLoad
	OpStore
	// OpPEI issues a PIM-enabled instruction.
	OpPEI
	// OpFence is a pfence: issue stalls until all prior writer PEIs
	// (system-wide) complete.
	OpFence
	// OpBarrier stalls issue until all participants of Op.Barrier have
	// arrived (software thread barrier between supersteps).
	OpBarrier
	// OpDrain stalls issue until all of this core's in-flight operations
	// complete — a data-dependence stall on outstanding PEI outputs
	// (e.g. a histogram phase whose results the next phase consumes).
	OpDrain
)

// Op is one element of a workload stream.
type Op struct {
	Kind    OpKind
	Addr    uint64
	Cycles  int64
	PEI     *pim.PEI
	Barrier *Barrier
}

// Stream supplies the ops a hardware context executes, in program order.
type Stream interface {
	// Next returns the next op, or ok=false at the end of the program.
	Next() (op Op, ok bool)
}

// MemPort is the hierarchy interface the core needs (satisfied by
// *cache.Hierarchy).
type MemPort interface {
	AccessEvent(core int, a uint64, write bool, done sim.Cont)
}

// PEIPort is the PMU interface the core needs (satisfied by *pim.PMU).
type PEIPort interface {
	Issue(p *pim.PEI)
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

	stream   Stream //peilint:allow snapcomplete re-armed by Run with the rebuilt workload's stream; the generator's position restores via the workload snapshot
	inflight int
	finished bool //peilint:allow snapcomplete cleared by Run and re-derived as the restored stream drains
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

	// OnFinished, if set, runs once when the stream is exhausted and
	// all in-flight operations have drained.
	OnFinished func()
	notified   bool //peilint:allow snapcomplete re-derived with finished when the restored stream drains
}

// NewCore creates a core.
func NewCore(id int, k *sim.Kernel, issueWidth, window int, mem MemPort, pmu PEIPort) *Core {
	if issueWidth <= 0 || window <= 0 {
		panic("cpu: bad core parameters")
	}
	return &Core{ID: id, k: k, issueWidth: issueWidth, window: window, mem: mem, pmu: pmu}
}

// Core event stages: the core itself is the handler for every per-op
// completion, so issuing a load, store, compute stall, or fence costs no
// allocation.
const (
	coreEvPump      = iota // scheduled pump (issue-width or barrier resume)
	coreEvUnblock          // multi-cycle compute retired; resume issue
	coreEvFenceDone        // pfence drained; retire it and resume issue
	coreEvMemDone          // a load/store completed
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
	default: // coreEvMemDone
		c.inflight--
		c.Retired++
		c.pump()
		c.maybeFinish()
	}
}

// PEIRetired implements pim.Retiree: the PMU notifies the issuing core
// directly at retire, replacing the per-PEI Done wrapper closure.
func (c *Core) PEIRetired(p *pim.PEI) {
	c.inflight--
	c.Retired++
	c.RetiredPEIs++
	if p.Done != nil {
		p.Done()
	}
	c.pump()
	c.maybeFinish()
}

// Run starts executing the stream; the caller then drives the kernel.
func (c *Core) Run(s Stream) {
	c.stream = s
	c.finished = false
	c.notified = false
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

func (c *Core) maybeFinish() {
	if c.Done() && !c.notified {
		c.notified = true
		if c.OnFinished != nil {
			c.OnFinished()
		}
	}
}

// pump issues ops until the window fills, the cycle's issue budget is
// spent, or the stream blocks/ends.
func (c *Core) pump() {
	if c.stream == nil || c.finished {
		c.maybeFinish()
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
			c.maybeFinish()
			return
		}
		c.issued++
		c.issuedThisCycle++
		switch op.Kind {
		case OpCompute:
			c.Retired++
			if op.Cycles > 0 {
				c.blocked = true
				c.k.ScheduleEvent(sim.Cycle(op.Cycles), c, sim.EventArg{N: coreEvUnblock})
				return
			}
		case OpLoad, OpStore:
			c.inflight++
			write := op.Kind == OpStore
			c.mem.AccessEvent(c.ID, op.Addr, write, sim.Cont{H: c, Arg: sim.EventArg{N: coreEvMemDone}})
		case OpPEI:
			c.inflight++
			p := op.PEI
			p.Core = c.ID
			p.Issuer = c
			c.pmu.Issue(p)
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
			op.Barrier.Arrive(func() {
				c.blocked = false
				c.Retired++
				c.schedulePump(0)
			})
			return
		}
	}
}
