package workloads

import (
	"bytes"
	"context"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
)

// TestRestorePoolHygiene pins the pool discipline across Restore:
// transaction pools are recycling capacity, never serialized, so
// restoring a snapshot into a machine whose pools are already populated
// from its own earlier run must neither resurrect a pooled transaction
// into live state nor lose one. Both failure modes surface as a
// double-release panic (the pools panic on re-release of a free
// transaction) or a wrong functional result when the run continues to
// completion — so finishing the restored run and verifying it is the
// whole test.
func TestRestorePoolHygiene(t *testing.T) {
	ctx := context.Background()
	p := testParams()

	// Source machine: run pr to its midpoint boundary and snapshot.
	w := MustNew("pr", p)
	m := machine.MustNew(config.Scaled(), pim.LocalityAware)
	streams := w.Streams(m)
	mid := w.Rounds() / 2
	if mid < 2 {
		t.Fatalf("pr has %d rounds; need at least 4 for distinct boundaries", w.Rounds())
	}
	w.SetRoundLimit(mid)
	if err := m.Start(streams); err != nil {
		t.Fatal(err)
	}
	if err := m.Drive(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SnapshotTo(&buf, w.Snap); err != nil {
		t.Fatal(err)
	}

	// Target machine: drive it to an EARLIER boundary first, so its
	// transaction pools hold released transactions and its architectural
	// state differs from the snapshot, then restore the midpoint
	// snapshot over it.
	w2 := MustNew("pr", p)
	m2 := machine.MustNew(config.Scaled(), pim.LocalityAware)
	streams2 := w2.Streams(m2)
	w2.SetRoundLimit(1)
	if err := m2.Start(streams2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Drive(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m2.RestoreFrom(bytes.NewReader(buf.Bytes()), w2.Snap); err != nil {
		t.Fatalf("restore into a used machine: %v", err)
	}
	w2.SetRoundLimit(0)
	if err := m2.Start(streams2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Drive(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m2.CheckDone(streams2); err != nil {
		t.Fatal(err)
	}
	m2.Finish()
	if err := w2.Verify(m2); err != nil {
		t.Fatalf("restored run lost functional correctness: %v", err)
	}
}

// TestPhasedVerifyAllWorkloads proves a checkpoint round-trip in the
// middle of the run preserves functional correctness for every
// workload: simulate to the midpoint boundary, serialize, restore into
// a second freshly built machine, finish the run there, and Verify on
// the second machine. Workloads with a single superstep have no
// interior boundary; for them the snapshot/restore leg is skipped and
// the phased driver alone is exercised.
func TestPhasedVerifyAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			p := testParams()
			w := MustNew(name, p)
			m := machine.MustNew(config.Scaled(), pim.LocalityAware)
			streams := w.Streams(m)
			rounds := w.Rounds()
			mid := rounds / 2

			drive := func(m *machine.Machine, w Workload, limit int) {
				t.Helper()
				w.SetRoundLimit(limit)
				if err := m.Start(streams); err != nil {
					t.Fatal(err)
				}
				if err := m.Drive(ctx); err != nil {
					t.Fatal(err)
				}
			}

			if mid > 0 {
				drive(m, w, mid)
				var buf bytes.Buffer
				if err := m.SnapshotTo(&buf, w.Snap); err != nil {
					t.Fatalf("snapshot at phase %d: %v", mid, err)
				}

				// Second machine: fresh build, restore, finish there.
				w2 := MustNew(name, p)
				m2 := machine.MustNew(config.Scaled(), pim.LocalityAware)
				streams2 := w2.Streams(m2)
				if err := m2.RestoreFrom(bytes.NewReader(buf.Bytes()), w2.Snap); err != nil {
					t.Fatalf("restore at phase %d: %v", mid, err)
				}
				w2.SetRoundLimit(0)
				if err := m2.Start(streams2); err != nil {
					t.Fatal(err)
				}
				if err := m2.Drive(ctx); err != nil {
					t.Fatal(err)
				}
				if err := m2.CheckDone(streams2); err != nil {
					t.Fatal(err)
				}
				m2.Finish()
				if err := w2.Verify(m2); err != nil {
					t.Fatalf("%s verification failed after restore at phase %d/%d: %v", name, mid, rounds, err)
				}
				return
			}
			drive(m, w, 0)
			if err := m.CheckDone(streams); err != nil {
				t.Fatal(err)
			}
			m.Finish()
			if err := w.Verify(m); err != nil {
				t.Fatalf("%s verification failed (phased driver): %v", name, err)
			}
		})
	}
}
