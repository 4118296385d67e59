package pei_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pimsim/pei"
)

func TestJobSpecNormalizeInfersKindAndDefaults(t *testing.T) {
	spec, _, err := pei.JobSpec{Workload: "bfs"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != pei.JobWorkload || spec.Size != "small" || spec.Mode != "locality" ||
		spec.Scale != 64 || spec.Threads <= 0 {
		t.Fatalf("normalized: %+v", spec)
	}

	espec, _, err := pei.JobSpec{Experiment: "sec76"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if espec.Kind != pei.JobExperiment || espec.Experiment != "sec7.6" {
		t.Fatalf("alias not canonicalized: %+v", espec)
	}
	if espec.OpBudget != 60_000 || espec.Pairs != 40 || len(espec.Workloads) != 10 {
		t.Fatalf("experiment defaults: %+v", espec)
	}
}

func TestJobSpecNormalizeRejectsInvalid(t *testing.T) {
	bad := []pei.JobSpec{
		{},
		{Workload: "bfs", Experiment: "fig2"},
		{Workload: "zzz"},
		{Experiment: "fig99"},
		{Workload: "bfs", Size: "tiny"},
		{Workload: "bfs", Mode: "quantum"},
		{Workload: "bfs", Config: "gigantic"},
		{Workload: "bfs", Verify: true, OpBudget: 100},
		{Experiment: "fig6", Workloads: []string{"nope"}},
		{Workload: "bfs", Overrides: json.RawMessage(`{"Cores": -3}`)},
		// The op budget is OpBudget; MaxOps must stay zero.
		{Workload: "bfs", Overrides: json.RawMessage(`{"MaxOps": 500}`)},
	}
	for _, s := range bad {
		if _, _, err := s.Normalize(); err == nil {
			t.Errorf("spec %+v should not normalize", s)
		}
	}
}

func TestJobSpecDigestStability(t *testing.T) {
	a, err := pei.JobSpec{Workload: "bfs"}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	// Spelling out the defaults yields the same digest.
	b, err := pei.JobSpec{
		Kind: pei.JobWorkload, Workload: "bfs", Size: "small", Mode: "locality-aware",
		Config: "scaled", Scale: 64,
	}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent specs digest differently:\n%s\n%s", a, b)
	}
	// Overrides that restate the preset collapse too (the digest hashes
	// the resolved config).
	c, err := pei.JobSpec{Workload: "bfs", Overrides: json.RawMessage(`{}`)}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatal("no-op overrides changed the digest")
	}

	// Workload-only fields mean nothing to an experiment job.
	e, err := pei.JobSpec{Experiment: "fig2"}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	for _, same := range []pei.JobSpec{
		{Experiment: "fig2", Seed: 3},
		{Experiment: "fig2", Size: "large", Mode: "pim", Threads: 2, Verify: true},
	} {
		d, err := same.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d != e {
			t.Errorf("spec %+v should digest like a plain fig2 job", same)
		}
	}

	for _, different := range []pei.JobSpec{
		{Workload: "bfs", Mode: "pim"},
		{Workload: "bfs", Scale: 128},
		{Workload: "bfs", Seed: 1},
		{Workload: "pr"},
		{Workload: "bfs", Config: "baseline"},
		{Workload: "bfs", Overrides: json.RawMessage(`{"Cores": 2}`)},
	} {
		d, err := different.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d == a {
			t.Errorf("spec %+v should digest differently", different)
		}
	}
}

// TestJobSpecWorkloadOrder: an experiment job's workload order is its
// table row order, so Digest must neither reorder the caller's slice nor
// collapse two orders into one digest.
func TestJobSpecWorkloadOrder(t *testing.T) {
	spec := pei.JobSpec{Experiment: "fig6", Workloads: []string{"pr", "bfs"}}
	a, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Workloads, []string{"pr", "bfs"}) {
		t.Fatalf("Digest reordered the spec's workloads: %v", spec.Workloads)
	}
	b, err := pei.JobSpec{Experiment: "fig6", Workloads: []string{"bfs", "pr"}}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two workload orders share one digest")
	}
}

// TestJobSpecIgnoresKernelKeys pins compatibility with clients written
// when jobs could pick an event kernel: a body still carrying "kernel"
// and "kernel_workers" decodes, normalizes and digests exactly like one
// without them, to the digest such jobs always had.
func TestJobSpecIgnoresKernelKeys(t *testing.T) {
	const want = "272d932249cfc0c5192111961e0650e2b9f46f1bdeacb7ddb2c0fe565972670e"
	var specs [2]pei.JobSpec
	for i, body := range []string{
		`{"workload":"bfs","scale":4096,"budget":2000,"kernel":"seq","kernel_workers":8}`,
		`{"workload":"bfs","scale":4096,"budget":2000}`,
	} {
		if err := json.Unmarshal([]byte(body), &specs[i]); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		d, err := specs[i].Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d != want {
			t.Errorf("digest of %s = %s, want %s", body, d, want)
		}
	}
	if !reflect.DeepEqual(specs[0], specs[1]) {
		t.Fatalf("decoded specs differ: %+v vs %+v", specs[0], specs[1])
	}
	n0, _, err0 := specs[0].Normalize()
	n1, _, err1 := specs[1].Normalize()
	if err0 != nil || err1 != nil || !reflect.DeepEqual(n0, n1) {
		t.Fatalf("normalized specs differ: %+v (%v) vs %+v (%v)", n0, err0, n1, err1)
	}
}

// FuzzJobSpecDigest checks that normalization is idempotent on any JSON
// body: either Normalize rejects the spec, or the normalized spec has the
// same digest as the original. Nothing may panic.
func FuzzJobSpecDigest(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"workload":"bfs"}`,
		`{"experiment":"sec76"}`,
		`{"kind":"workload","workload":"bfs","size":"small","mode":"locality-aware","config":"scaled","scale":64}`,
		`{"workload":"bfs","overrides":{}}`,
		`{"workload":"bfs","overrides":{"Cores":2}}`,
		`{"workload":"bfs","overrides":{"Cores":-3}}`,
		`{"workload":"bfs","overrides":{"MaxOps":500}}`,
		`{"workload":"bfs","config":"baseline","mode":"pim","seed":1}`,
		`{"workload":"bfs","experiment":"fig2"}`,
		`{"workload":"bfs","verify":true,"budget":100}`,
		`{"workload":"bfs","scale":4096,"budget":2000,"kernel":"seq","kernel_workers":8}`,
		`{"experiment":"fig6","scale":2048,"budget":1000,"workloads":["hg"]}`,
		`{"experiment":"fig6","workloads":["nope"]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s pei.JobSpec
		if json.Unmarshal(body, &s) != nil {
			return
		}
		n, _, err := s.Normalize()
		if err != nil {
			return
		}
		ds, err := s.Digest()
		if err != nil {
			t.Fatalf("Digest fails on a spec Normalize accepts: %v", err)
		}
		dn, err := n.Digest()
		if err != nil {
			t.Fatalf("normalized spec %+v does not normalize again: %v", n, err)
		}
		if ds != dn {
			t.Fatalf("Digest(Normalize(s)) != Digest(s) for %s\nnormalized: %+v", body, n)
		}
	})
}

func TestRunJobWorkloadDeterministic(t *testing.T) {
	spec := pei.JobSpec{Workload: "bfs", Scale: 4096, OpBudget: 2000}
	run := func() string {
		var buf bytes.Buffer
		if err := pei.RunJob(context.Background(), spec, &buf, pei.RunJobOptions{}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	if !strings.Contains(first, "cycles") || !strings.Contains(first, "workload        bfs") {
		t.Fatalf("unexpected report:\n%s", first)
	}
	if second := run(); second != first {
		t.Fatalf("reports differ:\n%s\n---\n%s", first, second)
	}
}

func TestRunJobExperimentEmitsProgress(t *testing.T) {
	spec := pei.JobSpec{Experiment: "fig6", Scale: 2048, OpBudget: 1000, Workloads: []string{"hg"}}
	var buf bytes.Buffer
	var events []pei.JobProgress
	err := pei.RunJob(context.Background(), spec, &buf, pei.RunJobOptions{
		Parallelism: 1,
		Progress:    func(p pei.JobProgress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatalf("missing table:\n%s", buf.String())
	}
	starts, dones := 0, 0
	for _, ev := range events {
		if ev.Cell == "" {
			t.Fatalf("event without cell: %+v", ev)
		}
		if ev.Done {
			dones++
			if ev.Cycles <= 0 {
				t.Fatalf("done event without cycles: %+v", ev)
			}
		} else {
			starts++
		}
	}
	if starts == 0 || starts != dones {
		t.Fatalf("unbalanced progress events: %d starts, %d dones", starts, dones)
	}
}

func TestRunJobCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := pei.RunJob(ctx, pei.JobSpec{Workload: "bfs", Scale: 4096}, &buf, pei.RunJobOptions{})
	if err == nil {
		t.Fatal("cancelled job should fail")
	}
}
