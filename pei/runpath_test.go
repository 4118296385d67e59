package pei

import (
	"context"
	"reflect"
	"testing"

	"pimsim/internal/harness"
)

// Every single-workload run goes through harness.Runner.RunWorkload, so
// a harness cell and RunWorkloadContext of the same workload must agree.
const (
	runPathScale  = 1024
	runPathBudget = 2000
)

func runPathParams() WorkloadParams {
	return WorkloadParams{Threads: ScaledConfig().Cores, Size: Small, Scale: runPathScale, OpBudget: runPathBudget}
}

func runPathRunner(store *SnapshotStore, name string) *harness.Runner {
	return harness.NewRunner(harness.Options{
		Cfg:           ScaledConfig(),
		Scale:         runPathScale,
		OpBudget:      runPathBudget,
		Workloads:     []string{name},
		SnapshotStore: store,
	})
}

func runPathCell(t *testing.T, r *harness.Runner, name string) Result {
	t.Helper()
	res, err := r.RunCell(context.Background(), harness.Cell{Workload: name, Size: Small, Mode: LocalityAware})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunPathsAgree(t *testing.T) {
	for _, name := range WorkloadNames {
		t.Run(name, func(t *testing.T) {
			cell := runPathCell(t, runPathRunner(nil, name), name)
			direct, err := RunWorkloadContext(context.Background(), ScaledConfig(), LocalityAware, name, runPathParams(), false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cell, direct) {
				t.Fatalf("RunWorkloadContext diverged from the harness cell\ndirect: %+v\ncell:   %+v", direct, cell)
			}
		})
	}
}

// With one shared store, a cold cell, a warm cell and the runner call
// RunWorkloadContext makes run the same phases and read each other's
// snapshots: all three must agree, and the two warm runs must each
// resume once, skipping exactly the cycles they did not simulate.
// RunWorkloadContext itself opens no store, so the third run makes its
// call with the store added.
func TestRunPathsAgreeWithSharedStore(t *testing.T) {
	for _, name := range WorkloadNames {
		t.Run(name, func(t *testing.T) {
			store, err := OpenSnapshotStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			coldRunner := runPathRunner(store, name)
			cold := runPathCell(t, coldRunner, name)
			coldRep := coldRunner.SnapshotReport()
			if coldRep.Store.Hits != 0 || coldRep.CyclesSkipped != 0 {
				t.Fatalf("cold cell resumed from an empty store: %+v", coldRep)
			}
			// Single-superstep workloads store no boundary and so never
			// resume; the others must.
			resumes := coldRep.Store.Entries > 0
			checkWarm := func(what string, r *harness.Runner, hits int64) {
				t.Helper()
				rep := r.SnapshotReport()
				if rep.Store.Hits != hits {
					t.Fatalf("%s: store hits = %d, want %d", what, rep.Store.Hits, hits)
				}
				if resumes && (rep.CyclesSkipped <= 0 || rep.CyclesSimulated+rep.CyclesSkipped != coldRep.CyclesSimulated) {
					t.Fatalf("%s did not resume at a stored boundary: %+v, cold simulated %d", what, rep, coldRep.CyclesSimulated)
				}
			}
			wantHits := int64(0)
			if resumes {
				wantHits = 1
			}
			warmRunner := runPathRunner(store, name)
			if warm := runPathCell(t, warmRunner, name); !reflect.DeepEqual(warm, cold) {
				t.Fatalf("warm cell diverged from the cold cell\nwarm: %+v\ncold: %+v", warm, cold)
			}
			checkWarm("warm cell", warmRunner, wantHits)
			r := harness.NewRunner(harness.Options{Cfg: ScaledConfig(), SnapshotStore: store})
			direct, err := r.RunWorkload(context.Background(), []harness.Program{{Workload: name, Params: runPathParams()}}, LocalityAware, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, cold) {
				t.Fatalf("direct run diverged from the cold cell\ndirect: %+v\ncold:   %+v", direct, cold)
			}
			checkWarm("direct run", r, 2*wantHits)
		})
	}
}
