package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for peiperf: the benchmark
// re-execs its own binary for every rep, and under go test that binary
// is this one.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// declared reads the metric declarations of BENCHMARK.json.
func declared(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json has %d workloads, peiperf %d", len(b.Workloads), len(benchWorkloads))
	}
	for i := range b.Workloads {
		if i < len(benchWorkloads) && b.Workloads[i].Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, peiperf %q", i, b.Workloads[i].Name, benchWorkloads[i].name)
		}
	}
	return b.EndToEnd, b.PerLayer
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := declared(t)
	for _, c := range []struct {
		file, code []metricDef
	}{{e2e, endToEnd}, {layer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json declares %d metrics, peiperf %d", len(c.file), len(c.code))
			continue
		}
		for i := range c.file {
			code := c.code[i]
			code.Floor = 0 // -compare's own allowance, not declared in BENCHMARK.json
			if c.file[i] != code {
				t.Errorf("metric %d: BENCHMARK.json %+v, peiperf %+v", i, c.file[i], code)
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size through the real
// parent/child path: one untraced and one traced rep each.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short")
	}
	e2e, layer := declared(t)
	p := plan{seed: defaultSeed, tiny: true}
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			reps := []*repResult{
				p.spawn(context.Background(), w, 0, false),
				p.spawn(context.Background(), w, 1, true),
			}
			r := summarize(w, p.seed, reps)
			if r.Failed != 0 {
				t.Fatalf("%d of %d cells failed: %v", r.Failed, r.Attempted, r.Errors)
			}
			if reps[0].Digest == "" || reps[0].Digest != reps[1].Digest {
				t.Errorf("sim_digest differs between runs: %q vs %q", reps[0].Digest, reps[1].Digest)
			}
			for _, c := range []struct {
				defs   []metricDef
				traced bool
			}{{e2e, false}, {layer, true}} {
				line := finalLine(r, c.traced)
				for _, d := range c.defs {
					if _, ok := line.Metrics[d.Name]; !ok {
						t.Errorf("metric %s not emitted", d.Name)
					}
				}
			}
			for _, d := range e2e {
				if v := r.EndToEnd[d.Name].Median; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10, Floor: 0.05}
	steady := newStat("s", []float64{1.00, 1.01, 0.99, 1.00, 1.02})
	for _, c := range []struct {
		name   string
		parent stat
		change []float64
		want   string
	}{
		{"within bound", steady, []float64{1.05, 1.04, 1.06, 1.05, 1.05}, "same"},
		{"slower", steady, []float64{1.20, 1.21, 1.19, 1.22, 1.20}, "worse"},
		{"faster", steady, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, "better"},
		{"noisy parent", newStat("s", []float64{0.7, 1.0, 1.3, 0.8, 1.2}), []float64{1.2, 1.3, 1.1, 1.2, 1.25}, "unresolved"},
		{"noisy parent, change beats every rep", newStat("s", []float64{0.7, 1.0, 1.3, 0.8, 1.2}), []float64{0.5, 0.6, 0.55, 0.6, 0.5}, "better"},
		{"milliseconds within the floor", newStat("s", []float64{0.0010, 0.0016, 0.0013, 0.0011, 0.0015}), []float64{0.003, 0.002, 0.0025, 0.002, 0.003}, "same"},
	} {
		if got := verdict(wall, c.parent, newStat("s", c.change)); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
