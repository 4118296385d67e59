package pei

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"pimsim/internal/harness"
)

// Every single-workload run goes through harness.Runner.RunWorkload, so
// a harness cell, RunWorkloadContext and a RunJob workload job of the
// same workload must agree. RunJob returns only its rendered report, so
// the job is compared against the report of the harness cell's Result.
const (
	runPathScale  = 1024
	runPathBudget = 2000
)

func runPathCell(t *testing.T, store *SnapshotStore, name string) Result {
	t.Helper()
	r := harness.NewRunner(harness.Options{
		Cfg:           ScaledConfig(),
		Scale:         runPathScale,
		OpBudget:      runPathBudget,
		Workloads:     []string{name},
		SnapshotStore: store,
	})
	res, err := r.RunCell(context.Background(), harness.Cell{Workload: name, Size: Small, Mode: LocalityAware})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runPathJob(t *testing.T, store *SnapshotStore, name string) (JobSpec, string) {
	t.Helper()
	spec := JobSpec{Workload: name, Size: "small", Scale: runPathScale, OpBudget: runPathBudget}
	var buf bytes.Buffer
	if err := RunJob(context.Background(), spec, &buf, RunJobOptions{Snapshots: store}); err != nil {
		t.Fatal(err)
	}
	norm, _, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return norm, buf.String()
}

func wantReport(spec JobSpec, res Result) string {
	var buf bytes.Buffer
	WriteWorkloadReport(&buf, spec, res)
	return buf.String()
}

func TestRunPathsAgree(t *testing.T) {
	for _, name := range WorkloadNames {
		t.Run(name, func(t *testing.T) {
			cell := runPathCell(t, nil, name)
			p := WorkloadParams{Threads: ScaledConfig().Cores, Size: Small, Scale: runPathScale, OpBudget: runPathBudget}
			direct, err := RunWorkloadContext(context.Background(), ScaledConfig(), LocalityAware, name, p, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cell, direct) {
				t.Fatalf("RunWorkloadContext diverged from the harness cell\ndirect: %+v\ncell:   %+v", direct, cell)
			}
			spec, got := runPathJob(t, nil, name)
			if want := wantReport(spec, cell); got != want {
				t.Fatalf("job report diverged from the harness cell\njob:\n%s\ncell:\n%s", got, want)
			}
		})
	}
}

// With one shared store, a job and a harness cell run the same phases
// and read each other's snapshots: the cold job and the warm cell (and
// a second, warm job) must all agree.
func TestRunPathsAgreeWithSharedStore(t *testing.T) {
	for _, name := range WorkloadNames {
		t.Run(name, func(t *testing.T) {
			store, err := OpenSnapshotStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			spec, cold := runPathJob(t, store, name)
			cell := runPathCell(t, store, name)
			if want := wantReport(spec, cell); cold != want {
				t.Fatalf("cold job diverged from the warm harness cell\njob:\n%s\ncell:\n%s", cold, want)
			}
			if _, warm := runPathJob(t, store, name); warm != cold {
				t.Fatalf("warm job diverged from the cold job\nwarm:\n%s\ncold:\n%s", warm, cold)
			}
			// Single-superstep workloads store no boundary; the others must
			// have resumed twice.
			if st := store.Stats(); st.Entries > 0 && st.Hits != 2 {
				t.Fatalf("cell and warm job should each resume from the store: %+v", st)
			}
		})
	}
}
