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
func (m *Machine) SnapshotTo(wr io.Writer, extra func(*snap.Coder)) error {
	if err := m.Quiesce(); err != nil {
		return err
	}
	c := snap.NewEncoder(wr)
	m.snap(c, extra)
	return c.Flush()
}

// RestoreFrom loads a snapshot into a freshly built machine of the
// identical configuration (same config, mode, and workload layout).
// Counter values land in the registry by name, so final totals match
// the cold run's exactly. extra decodes what SnapshotTo's extra wrote.
func (m *Machine) RestoreFrom(rd io.Reader, extra func(*snap.Coder)) error {
	if err := m.Quiesce(); err != nil {
		return fmt.Errorf("snap: restore target not idle: %w", err)
	}
	c, err := snap.NewDecoder(rd)
	if err != nil {
		return err
	}
	m.snap(c, extra)
	return c.Err()
}

// snap walks every component in stream order, for both directions.
func (m *Machine) snap(c *snap.Coder, extra func(*snap.Coder)) {
	m.K.Snap(c)
	m.Reg.Snap(c)
	m.Store.Snap(c)
	c.Expect("machine: cores", len(m.Cores))
	for _, core := range m.Cores {
		core.Snap(c)
	}
	m.Hier.Snap(c)
	m.Chain.Snap(c)
	m.PMU.Snap(c)
	if m.vml != nil {
		m.vml.pt.Snap(c)
		for _, t := range m.vml.tlbs {
			t.Snap(c)
		}
	}
	if extra != nil {
		extra(c)
	}
}
