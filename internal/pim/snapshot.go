package pim

import (
	"fmt"

	"pimsim/internal/snap"
)

// SnapshotTo serializes the monitor's tag array: every entry (valid,
// tag, LRU stamp, ignore flag) plus the LRU clock, so post-resume
// steering decisions replay the cold run's exactly.
func (m *Monitor) SnapshotTo(w *snap.Writer) {
	w.Section("LMON")
	w.Int(m.sets)
	w.Int(m.ways)
	w.U64(m.clock)
	for i := range m.entries {
		e := &m.entries[i]
		w.Bool(e.valid)
		w.U64(e.tag)
		w.U64(e.lru)
		w.Bool(e.ignore)
	}
}

// RestoreFrom loads monitor state into a monitor of identical geometry.
func (m *Monitor) RestoreFrom(r *snap.Reader) {
	r.Section("LMON")
	sets, ways := r.Int(), r.Int()
	if r.Err() != nil {
		return
	}
	if sets != m.sets || ways != m.ways {
		r.Fail(fmt.Errorf("pim: monitor geometry %dx%d, snapshot has %dx%d", m.sets, m.ways, sets, ways))
		return
	}
	m.clock = r.U64()
	for i := range m.entries {
		e := &m.entries[i]
		e.valid = r.Bool()
		e.tag = r.U64()
		e.lru = r.U64()
		e.ignore = r.Bool()
	}
}

// SnapshotTo serializes the PCU's execution-port horizons and lifetime
// counters. The operand buffer must be empty with no queued waiters.
func (p *PCU) SnapshotTo(w *snap.Writer) {
	w.Section("PCU ")
	if p.inFlight != 0 || p.waitQ.Len() != 0 {
		w.Fail(fmt.Errorf("%w: PCU has %d in-flight PEIs and %d waiters",
			snap.ErrNotQuiescent, p.inFlight, p.waitQ.Len()))
		return
	}
	w.Int(len(p.ports))
	for _, c := range p.ports {
		w.I64(c)
	}
	w.I64(p.BufferFullStalls)
	w.I64(p.Executed)
}

// RestoreFrom loads PCU state saved by SnapshotTo. The target PCU must
// be quiescent: an in-flight PEI or a parked waiter would resume
// against the restored port horizons.
func (p *PCU) RestoreFrom(r *snap.Reader) {
	r.Section("PCU ")
	if p.inFlight != 0 || p.waitQ.Len() != 0 {
		r.Fail(fmt.Errorf("%w: restore target PCU has %d in-flight PEIs and %d waiters",
			snap.ErrNotQuiescent, p.inFlight, p.waitQ.Len()))
		return
	}
	ports := r.Int()
	if r.Err() != nil {
		return
	}
	if ports != len(p.ports) {
		r.Fail(fmt.Errorf("pim: PCU has %d ports, snapshot has %d", len(p.ports), ports))
		return
	}
	for i := range p.ports {
		p.ports[i] = r.I64()
	}
	p.BufferFullStalls = r.I64()
	p.Executed = r.I64()
}

// assertIdle fails the snapshot if the directory holds any lock, waiter,
// or unfenced writer. A quiescent directory is stateless (its counters
// live in the stats registry), so idleness is asserted rather than
// serialized.
func (d *Directory) assertIdle(fail func(error)) {
	if d.outstandingWriters != 0 || len(d.fenceWaiters) != 0 {
		fail(fmt.Errorf("%w: directory has %d outstanding writers and %d fence waiters",
			snap.ErrNotQuiescent, d.outstandingWriters, len(d.fenceWaiters)))
		return
	}
	for i := range d.entries {
		e := &d.entries[i]
		if e.readers != 0 || e.writer || e.queue.Len() != 0 {
			fail(fmt.Errorf("%w: directory entry %d held (readers=%d writer=%v queued=%d)",
				snap.ErrNotQuiescent, i, e.readers, e.writer, e.queue.Len()))
			return
		}
	}
	if len(d.idealLocks) != 0 {
		fail(fmt.Errorf("%w: ideal directory holds %d live locks", snap.ErrNotQuiescent, len(d.idealLocks)))
	}
}

// SnapshotTo serializes the PMU: the locality monitor, the PEI latency
// histogram, and every host- and memory-side PCU. The directory must be
// idle (asserted, not serialized) and no PEI transaction in flight —
// pools are recycling capacity only and never appear in the stream.
func (p *PMU) SnapshotTo(w *snap.Writer) {
	w.Section("PMU ")
	p.Dir.assertIdle(w.Fail)
	if w.Err() != nil {
		return
	}
	w.Int(len(p.HostPCU))
	w.Int(len(p.MemPCU))
	p.Mon.SnapshotTo(w)
	p.PEILatency.SnapshotTo(w)
	for _, u := range p.HostPCU {
		u.SnapshotTo(w)
	}
	for _, u := range p.MemPCU {
		u.SnapshotTo(w)
	}
}

// RestoreFrom loads PMU state saved by SnapshotTo.
func (p *PMU) RestoreFrom(r *snap.Reader) {
	r.Section("PMU ")
	hosts, mems := r.Int(), r.Int()
	if r.Err() != nil {
		return
	}
	if hosts != len(p.HostPCU) || mems != len(p.MemPCU) {
		r.Fail(fmt.Errorf("pim: PMU has %d host / %d mem PCUs, snapshot has %d / %d",
			len(p.HostPCU), len(p.MemPCU), hosts, mems))
		return
	}
	p.Mon.RestoreFrom(r)
	p.PEILatency.RestoreFrom(r)
	for _, u := range p.HostPCU {
		u.RestoreFrom(r)
	}
	for _, u := range p.MemPCU {
		u.RestoreFrom(r)
	}
}
