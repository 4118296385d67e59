package pimsim_test

import (
	"context"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

// TestPIMOnlyLargeEventCount pins the number of events the kernel
// dispatches for one memory-bound cell: bfs on the Large input under
// PIM-Only, scale 256, budget 20000, seed 1, on the Scaled machine. The
// count is exact and free of timing noise, so a component that starts
// scheduling redundant wakeups (the DRAM controller once woke twice for
// every pump) fails here instead of waiting for a profile. The cycle
// count is pinned beside it: fewer events for the same cycles is a
// saving, fewer cycles is a model change.
func TestPIMOnlyLargeEventCount(t *testing.T) {
	const wantEvents, wantCycles = 577_868, 471_801
	cfg := config.Scaled()
	w, err := workloads.New("bfs", workloads.Params{
		Threads: cfg.Cores, Size: workloads.Large, Scale: 256, Seed: 1, OpBudget: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.MustNew(cfg, pim.PIMOnly)
	res, err := m.RunContext(context.Background(), w.Streams(m))
	if err != nil {
		t.Fatal(err)
	}
	if m.K.Executed != wantEvents || res.Cycles != wantCycles {
		t.Fatalf("bfs/Large/PIM-Only dispatched %d events over %d cycles, want %d over %d",
			m.K.Executed, res.Cycles, wantEvents, wantCycles)
	}
}
