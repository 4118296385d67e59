package pim

import (
	"fmt"

	"pimsim/internal/snap"
)

// Snap codes the monitor's tag array of identical geometry: every entry
// (valid, tag, LRU stamp, ignore flag) plus the LRU clock, so
// post-resume steering decisions replay the cold run's exactly.
func (m *Monitor) Snap(c *snap.Coder) {
	c.Section("LMON")
	c.Expect("pim: monitor sets", m.sets)
	c.Expect("pim: monitor ways", m.ways)
	c.U64(&m.clock)
	for i := range m.entries {
		e := &m.entries[i]
		c.Bool(&e.valid)
		c.U64(&e.tag)
		c.U64(&e.lru)
		c.Bool(&e.ignore)
	}
}

// Snap codes the PCU's execution-port horizons and lifetime counters.
// The operand buffer must be empty with no queued waiters, on both
// sides: an in-flight PEI or a parked waiter would resume against the
// restored port horizons.
func (p *PCU) Snap(c *snap.Coder) {
	c.Section("PCU ")
	if p.inFlight != 0 || p.waitQ.Len() != 0 {
		c.Fail(fmt.Errorf("%w: PCU has %d in-flight PEIs and %d waiters",
			snap.ErrNotQuiescent, p.inFlight, p.waitQ.Len()))
		return
	}
	c.Expect("pim: PCU ports", len(p.ports))
	for i := range p.ports {
		c.I64(&p.ports[i])
	}
	c.I64(&p.BufferFullStalls)
	c.I64(&p.Executed)
}

// busy reports why the directory is not idle: it holds a lock, a
// waiter, or an unfenced writer. A quiescent directory is stateless
// (its counters live in the stats registry), so idleness is asserted
// rather than serialized.
func (d *Directory) busy() error {
	if d.outstandingWriters != 0 || len(d.fenceWaiters) != 0 {
		return fmt.Errorf("%w: directory has %d outstanding writers and %d fence waiters",
			snap.ErrNotQuiescent, d.outstandingWriters, len(d.fenceWaiters))
	}
	for i := range d.entries {
		e := &d.entries[i]
		if e.readers != 0 || e.writer || e.queue.Len() != 0 {
			return fmt.Errorf("%w: directory entry %d held (readers=%d writer=%v queued=%d)",
				snap.ErrNotQuiescent, i, e.readers, e.writer, e.queue.Len())
		}
	}
	if len(d.idealLocks) != 0 {
		return fmt.Errorf("%w: ideal directory holds %d live locks", snap.ErrNotQuiescent, len(d.idealLocks))
	}
	return nil
}

// Snap codes the PMU: the locality monitor, the PEI latency histogram,
// and every host- and memory-side PCU. The directory must be idle on
// both sides (asserted, not serialized) and no PEI transaction in
// flight — pools are recycling capacity only and never appear in the
// stream.
func (p *PMU) Snap(c *snap.Coder) {
	c.Section("PMU ")
	if err := p.Dir.busy(); err != nil {
		c.Fail(err)
		return
	}
	c.Expect("pim: PMU host PCUs", len(p.HostPCU))
	c.Expect("pim: PMU memory PCUs", len(p.MemPCU))
	p.Mon.Snap(c)
	p.PEILatency.Snap(c)
	for _, u := range p.HostPCU {
		u.Snap(c)
	}
	for _, u := range p.MemPCU {
		u.Snap(c)
	}
}
