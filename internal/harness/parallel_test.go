package harness

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

// renderFigures runs a representative figure set and returns the
// rendered bytes — the comparison unit of the determinism test.
func renderFigures(t *testing.T, o Options) string {
	t.Helper()
	r := NewRunner(o)
	var buf bytes.Buffer
	for _, f := range []func() (*Table, error){
		func() (*Table, error) { return r.Fig6(ctx, workloads.Small) },
		func() (*Table, error) { return r.Fig7(ctx, workloads.Small) },
		func() (*Table, error) { return r.Fig12(ctx, workloads.Small) },
		func() (*Table, error) { return r.Fig9(ctx) },
		func() (*Table, error) { return r.Fig2(ctx) },
		func() (*Table, error) { return r.Fig8(ctx) },
		func() (*Table, error) { return r.Fig11a(ctx) },
	} {
		tb, err := f()
		if err != nil {
			t.Fatal(err)
		}
		tb.Render(&buf)
	}
	return buf.String()
}

// TestParallelDeterminism: the same options must render byte-identical
// tables at Parallelism 1 and 8 — rows are assembled in declared order
// regardless of completion order, and every cell is an isolated machine.
func TestParallelDeterminism(t *testing.T) {
	serial := tinyOptions()
	serial.Parallelism = 1
	parallel := tinyOptions()
	parallel.Parallelism = 8
	a := renderFigures(t, serial)
	b := renderFigures(t, parallel)
	if a != b {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if !strings.Contains(a, "Figure 6") {
		t.Fatalf("unexpected output: %s", a)
	}
}

// TestRunCellSingleflight: many concurrent requests for the same run —
// half through RunCell, half through RunWorkload with a mutate that
// leaves the config equal — must simulate exactly once, and every
// requester sees the same result.
func TestRunCellSingleflight(t *testing.T) {
	r := NewRunner(tinyOptions())
	c := Cell{Workload: "atf", Size: workloads.Small, Mode: pim.HostOnly}
	const requesters = 8
	results := make([]int64, requesters)
	var wg sync.WaitGroup
	for i := 0; i < requesters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res machine.Result
			var err error
			if i%2 == 0 {
				res, err = r.RunCell(ctx, c)
			} else {
				res, err = r.RunWorkload(ctx, []Program{r.program(c)}, c.Mode,
					func(cfg *config.Config) { cfg.PCUExecWidth = r.Opts.Cfg.PCUExecWidth }, false)
			}
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Cycles
		}()
	}
	wg.Wait()
	if n := r.Simulations(); n != 1 {
		t.Fatalf("cell simulated %d times, want 1", n)
	}
	for i := 1; i < requesters; i++ {
		if results[i] != results[0] {
			t.Fatalf("requester %d saw %d cycles, requester 0 saw %d", i, results[i], results[0])
		}
	}
}

// TestCancellationMidRun: cancelling the context during a Fig6 sweep
// must abort the run promptly with context.Canceled.
func TestCancellationMidRun(t *testing.T) {
	o := tinyOptions()
	o.Parallelism = 4
	r := NewRunner(o)
	cctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.Fig6(cctx, workloads.Large)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			// The sweep beat the cancellation; that is legal but the test
			// then proves nothing, so verify a pre-cancelled run errors.
			if _, err := r.Fig7(cctx, workloads.Large); err == nil {
				t.Fatal("cancelled context did not abort the sweep")
			}
			return
		}
		if !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return within the deadline")
	}
}

// TestCancelledCellNotCached: a cancelled cell must be evicted so a
// later request re-simulates instead of replaying the error.
func TestCancelledCellNotCached(t *testing.T) {
	r := NewRunner(tinyOptions())
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Cell{Workload: "atf", Size: workloads.Small, Mode: pim.HostOnly}
	if _, err := r.RunCell(cctx, c); err == nil {
		t.Fatal("expected cancellation error")
	}
	res, err := r.RunCell(ctx, c)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("retry produced empty result: %+v", res)
	}
}

// failingCell is a cell whose run fails at build time (its workload
// does not exist), after mutate has run.
func failingCell(name string, mutate func()) Cell {
	return Cell{Workload: name, Size: workloads.Small, Mode: pim.HostOnly, Mutate: func(*config.Config) { mutate() }}
}

// failedRunner returns a runner whose Progress closes the returned
// channel once the run labelled with prefix has finished.
func failedRunner(parallelism int, prefix string) (*Runner, chan struct{}) {
	o := tinyOptions()
	o.Parallelism = parallelism
	failed := make(chan struct{})
	o.Progress = func(p Progress) {
		if p.Done && strings.HasPrefix(p.Cell, prefix) {
			close(failed)
		}
	}
	return NewRunner(o), failed
}

// TestGridFirstErrorByIndex: grid must report the lowest-index failure
// even when a higher-index cell fails first. Cell 3 fails once cell 1
// is under way, and cell 1 fails after cell 3, so both record a real
// failure.
func TestGridFirstErrorByIndex(t *testing.T) {
	r, failed3 := failedRunner(4, "no-such-3/")
	started := make(chan struct{})
	cells := []Cell{
		{Workload: "atf", Size: workloads.Small, Mode: pim.HostOnly},
		failingCell("no-such-1", func() { close(started); <-failed3 }),
		{Workload: "hg", Size: workloads.Small, Mode: pim.HostOnly},
		failingCell("no-such-3", func() { <-started }),
	}
	_, err := r.grid(ctx, len(cells), 1, func(i, _ int) Cell { return cells[i] })
	if err == nil || !strings.Contains(err.Error(), `"no-such-1"`) {
		t.Fatalf("grid returned %v, want cell 1's failure", err)
	}
}

// TestGridReportsFailureNotCancellation: when cell 1 fails, the pool
// cancels cell 0, which then returns context.Canceled; the lower index
// must not mask the real failure.
func TestGridReportsFailureNotCancellation(t *testing.T) {
	r, failed := failedRunner(2, "no-such/")
	started := make(chan struct{})
	cells := []Cell{
		// Cell 0 starts simulating only after cell 1 has failed.
		{Workload: "atf", Size: workloads.Large, Mode: pim.HostOnly, Mutate: func(*config.Config) { close(started); <-failed }},
		failingCell("no-such", func() { <-started }),
	}
	_, err := r.grid(ctx, len(cells), 1, func(i, _ int) Cell { return cells[i] })
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), `"no-such"`) {
		t.Fatalf("grid returned %v, want the failing cell's error", err)
	}
}
