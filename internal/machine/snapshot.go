package machine

import (
	"fmt"
	"io"

	"pimsim/internal/snap"
)

// This file orchestrates whole-machine snapshots. A snapshot is only
// defined at quiescence — every event queue empty, every transaction
// pool at rest — so what it captures is pure architectural state:
// clocks, tag arrays, row buffers, counters, and functional memory.
// Transaction pools are never serialized (a fresh pool is timing-
// neutral).

// Quiesce verifies the machine has fully drained, so a snapshot can be
// taken or the next phase started from one well-defined cycle.
func (m *Machine) Quiesce() error {
	if n := m.K.Pending(); n != 0 {
		return fmt.Errorf("%w: %d events pending", snap.ErrNotQuiescent, n)
	}
	return nil
}

// SnapshotTo serializes the machine to wr. The caller must have
// Quiesce()d (SnapshotTo re-checks and fails otherwise); the run can
// continue past the boundary. extra, if non-nil, appends caller sections
// (e.g. workload generator state) to the same stream.
func (m *Machine) SnapshotTo(wr io.Writer, extra func(*snap.Writer)) error {
	if err := m.Quiesce(); err != nil {
		return err
	}
	w := snap.NewWriter(wr)
	m.K.SnapshotTo(w)
	m.Reg.SnapshotTo(w)
	m.Store.SnapshotTo(w)
	w.Int(len(m.Cores))
	for _, c := range m.Cores {
		c.SnapshotTo(w)
	}
	m.Hier.SnapshotTo(w)
	m.Chain.SnapshotTo(w)
	m.PMU.SnapshotTo(w)
	if m.vml != nil {
		m.vml.pt.SnapshotTo(w)
		for _, t := range m.vml.tlbs {
			t.SnapshotTo(w)
		}
	}
	if extra != nil {
		extra(w)
	}
	return w.Err()
}

// RestoreFrom loads a snapshot into a freshly built machine of the
// identical configuration (same config, mode, and workload layout).
// Counter values land in the registry by name, so final totals match
// the cold run's exactly. extra mirrors SnapshotTo's.
func (m *Machine) RestoreFrom(rd io.Reader, extra func(*snap.Reader)) error {
	if err := m.Quiesce(); err != nil {
		return fmt.Errorf("snap: restore target not idle: %w", err)
	}
	r, err := snap.NewReader(rd)
	if err != nil {
		return err
	}
	m.K.RestoreFrom(r)
	m.Reg.RestoreFrom(r)
	m.Store.RestoreFrom(r)
	cores := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if cores != len(m.Cores) {
		return fmt.Errorf("snap: machine has %d cores, snapshot has %d", len(m.Cores), cores)
	}
	for _, c := range m.Cores {
		c.RestoreFrom(r)
	}
	m.Hier.RestoreFrom(r)
	m.Chain.RestoreFrom(r)
	m.PMU.RestoreFrom(r)
	if m.vml != nil {
		m.vml.pt.RestoreFrom(r)
		for _, t := range m.vml.tlbs {
			t.RestoreFrom(r)
		}
	}
	if extra != nil {
		extra(r)
	}
	return r.Err()
}
