package harness

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenOptions mirrors the scaled-down bench configuration so the run
// finishes in about a second while still exercising every mode.
func goldenOptions() Options {
	o := Default()
	o.Scale = 512
	o.OpBudget = 8_000
	o.Pairs = 4
	cfg := config.Scaled()
	cfg.L1 = config.CacheConfig{SizeBytes: 2 << 10, Ways: 4, LatencyCycles: 4, MSHRs: 8}
	cfg.L2 = config.CacheConfig{SizeBytes: 8 << 10, Ways: 8, LatencyCycles: 12, MSHRs: 8}
	cfg.L3 = config.CacheConfig{SizeBytes: 64 << 10, Ways: 16, LatencyCycles: 30, MSHRs: 32}
	cfg.L3Banks = 4
	o.Cfg = cfg
	return o
}

// checkGolden compares rendered tables against testdata/<name>, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestFig6SmallGolden pins the rendered Figure 6 (small inputs),
// Figure 2 and Figure 9 tables. The Figure 6 golden was captured before
// the calendar-queue scheduler and counter-handle refactor; Figure 2
// exercises the graph workloads' access patterns (and so different
// PEI/response interleavings); the Figure 9 golden was captured while
// its pairs still ran outside RunWorkload, so it pins that folding two
// programs into one run changed no cycle. Simulated timing must stay byte-identical
// across internal scheduler changes. Regenerate deliberately with
// `go test ./internal/harness -run Fig6SmallGolden -update` after a
// change that is *supposed* to alter simulated behavior.
func TestFig6SmallGolden(t *testing.T) {
	for _, fig := range []struct {
		golden string
		run    func(*Runner) (*Table, error)
	}{
		{"fig6_small.golden", func(r *Runner) (*Table, error) { return r.Fig6(context.Background(), workloads.Small) }},
		{"fig2_small.golden", func(r *Runner) (*Table, error) { return r.Fig2(context.Background()) }},
		{"fig9.golden", func(r *Runner) (*Table, error) { return r.Fig9(context.Background()) }},
	} {
		t.Run(fig.golden, func(t *testing.T) {
			tb, err := fig.run(NewRunner(goldenOptions()))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tb.Render(&buf)
			checkGolden(t, fig.golden, buf.Bytes())
		})
	}
}

// TestAblationsGolden pins the seven tables of the ablations experiment
// (the six ablations and the HMC 2.0 comparison) on the default scaled
// machine with scale-4096 inputs and a 1,000-op budget. The golden was
// generated before the sensitivity tables shared one grid, so it is the
// reference any reshaping of how they run must match. Regenerate with
// `go test ./internal/harness -run AblationsGolden -update`.
func TestAblationsGolden(t *testing.T) {
	o := Default()
	o.Scale = 4096
	o.OpBudget = 1_000
	r := NewRunner(o)
	var buf bytes.Buffer
	for _, f := range []func(context.Context) (*Table, error){
		r.AblationIgnoreBit, r.AblationPartialTagWidth,
		r.AblationDirectorySize, r.AblationDispatchWindow,
		r.AblationInterleave, r.AblationPrefetcher,
		r.ComparisonHMC2,
	} {
		tb, err := f(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tb.Render(&buf)
	}
	checkGolden(t, "ablations.golden", buf.Bytes())
}
