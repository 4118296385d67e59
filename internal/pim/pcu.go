package pim

import (
	"pimsim/internal/sim"
)

// PCU is a PEI computation unit (§4.2): computation logic shared by all
// PEI kinds plus a small operand buffer. The operand buffer bounds
// in-flight PEIs at this unit — memory accesses of buffered PEIs overlap
// freely, while the computation logic serializes at the configured issue
// width. Host-side PCUs run at the CPU clock; memory-side PCUs at the
// (slower) logic-die clock, expressed via clockDiv.
type PCU struct {
	k        *sim.Kernel
	entries  int
	clockDiv sim.Cycle

	inFlight int
	// waitQ with waitHead is a head-indexed FIFO: popping advances the
	// head and the slice is reset (retaining capacity) when it empties,
	// so steady-state churn never reallocates.
	waitQ    []sim.Cont
	waitHead int

	// ports holds the next-free cycle of each execution port
	// (len = execution width).
	ports []sim.Cycle

	// BufferFullStalls counts PEIs that had to wait for an operand
	// buffer entry; Executed counts completed computations.
	BufferFullStalls int64
	Executed         int64
}

// NewPCU creates a PCU with the given operand buffer size, execution
// width and clock divisor (1 = CPU clock, 2 = 2 GHz).
func NewPCU(k *sim.Kernel, entries, width int, clockDiv sim.Cycle) *PCU {
	if entries <= 0 || width <= 0 || clockDiv <= 0 {
		panic("pim: bad PCU parameters")
	}
	return &PCU{k: k, entries: entries, clockDiv: clockDiv, ports: make([]sim.Cycle, width)}
}

// AcquireEvent obtains an operand buffer entry, queueing if all are in
// use. granted is invoked (synchronously when an entry is free) once the
// entry is held; the holder must call Release.
func (p *PCU) AcquireEvent(granted sim.Cont) {
	if p.inFlight < p.entries {
		p.inFlight++
		granted.Invoke()
		return
	}
	p.BufferFullStalls++
	p.waitQ = append(p.waitQ, granted)
}

// Release frees an operand buffer entry and admits the next waiter.
func (p *PCU) Release() {
	if p.waitHead < len(p.waitQ) {
		next := p.waitQ[p.waitHead]
		p.waitQ[p.waitHead] = sim.Cont{} // drop the handler reference
		p.waitHead++
		if p.waitHead == len(p.waitQ) {
			p.waitQ = p.waitQ[:0]
			p.waitHead = 0
		}
		next.Invoke()
		return
	}
	p.inFlight--
	if p.inFlight < 0 {
		panic("pim: PCU release without acquire")
	}
}

// InFlight reports current operand-buffer occupancy.
func (p *PCU) InFlight() int { return p.inFlight }

// ComputeEvent schedules one computation: the issuing port is busy for one
// PCU cycle (the logic is pipelined with an initiation interval of one),
// and done runs after the operation's full latency. A width-w PCU thus
// initiates up to w operations per PCU cycle, matching the paper's
// single-issue (per-PCU) computation logic whose latency is hidden by
// the operand buffer (§4.2).
func (p *PCU) ComputeEvent(cycles int64, done sim.Cont) {
	now := p.k.Now()
	best := 0
	for i := range p.ports {
		if p.ports[i] < p.ports[best] {
			best = i
		}
	}
	start := p.ports[best]
	if start < now {
		start = now
	}
	p.ports[best] = start + p.clockDiv
	end := start + sim.Cycle(cycles)*p.clockDiv
	p.Executed++
	p.k.AtEvent(end, done.H, done.Arg)
}
