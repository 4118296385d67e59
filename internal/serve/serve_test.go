package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimsim/pei"
)

// discardLogf silences request logging in tests (t.Logf is unsafe once
// worker goroutines outlive the test body).
func discardLogf(string, ...any) {}

// newTestServer starts a Server plus an httptest front end and tears
// both down (drain first, then listener) at cleanup.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = discardLogf
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// workloadSpec returns a tiny workload job; distinct seeds give
// distinct digests.
func workloadSpec(seed int64) pei.JobSpec {
	return pei.JobSpec{Workload: "bfs", Size: "small", Scale: 4096, OpBudget: 2000, Seed: seed}
}

func submit(t *testing.T, ts *httptest.Server, spec pei.JobSpec) (int, jobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && resp.StatusCode < 400 {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, v
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.State.terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return jobView{}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	_, body := getBody(t, ts.URL+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestWorkerPoolCacheExactlyNMinus1Hits is the satellite determinism
// test: one spec submitted N times while the first submission is still
// running simulates exactly once and serves the other N-1 from the
// cache.
func TestWorkerPoolCacheExactlyNMinus1Hits(t *testing.T) {
	const n = 5
	var runs atomic.Int64
	started := make(chan struct{}, n)
	release := make(chan struct{})
	opts := Options{Workers: 2, QueueDepth: 16}
	opts.runJob = func(ctx context.Context, spec pei.JobSpec, w io.Writer, ro pei.RunJobOptions) error {
		runs.Add(1)
		started <- struct{}{}
		<-release
		fmt.Fprintf(w, "deterministic result for seed %d\n", spec.Seed)
		return nil
	}
	_, ts := newTestServer(t, opts)

	spec := workloadSpec(7)
	status, leader := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("leader submit status %d", status)
	}
	<-started // the leader is running; everyone else must coalesce

	ids := []string{leader.ID}
	var wg sync.WaitGroup
	idCh := make(chan string, n-1)
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, v := submit(t, ts, spec)
			if status != http.StatusAccepted {
				t.Errorf("follower submit status %d", status)
			}
			idCh <- v.ID
		}()
	}
	wg.Wait()
	close(idCh)
	for id := range idCh {
		ids = append(ids, id)
	}

	close(release)
	outs := make(map[string]bool)
	hits := 0
	for _, id := range ids {
		v := waitTerminal(t, ts, id)
		if v.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, v.State, v.Error)
		}
		if v.CacheHit {
			hits++
		}
		_, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
		outs[body] = true
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("simulated %d times, want exactly 1", got)
	}
	if hits != n-1 {
		t.Fatalf("%d cache-hit jobs, want %d", hits, n-1)
	}
	if len(outs) != 1 {
		t.Fatalf("results not byte-identical: %d distinct payloads", len(outs))
	}
	if v := metricValue(t, ts, "peiserved_cache_hits"); v != n-1 {
		t.Fatalf("peiserved_cache_hits = %d, want %d", v, n-1)
	}

	// A later resubmission is a plain cache hit: 200, complete at once.
	status, v := submit(t, ts, spec)
	if status != http.StatusOK || v.State != StateDone || !v.CacheHit {
		t.Fatalf("resubmit: status %d state %s cacheHit %v", status, v.State, v.CacheHit)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("resubmit re-simulated (runs %d)", got)
	}
}

// TestBackpressure429 is the satellite backpressure test: with one
// worker and a depth-1 queue, the third concurrent submission bounces.
func TestBackpressure429(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	opts := Options{Workers: 1, QueueDepth: 1}
	opts.runJob = func(ctx context.Context, spec pei.JobSpec, w io.Writer, ro pei.RunJobOptions) error {
		started <- struct{}{}
		<-release
		fmt.Fprintln(w, "ok")
		return nil
	}
	_, ts := newTestServer(t, opts)

	if status, _ := submit(t, ts, workloadSpec(1)); status != http.StatusAccepted {
		t.Fatalf("first submit: %d", status)
	}
	<-started // worker busy; the queue slot is free again
	if status, _ := submit(t, ts, workloadSpec(2)); status != http.StatusAccepted {
		t.Fatalf("second submit: %d", status)
	}
	status, _ := submit(t, ts, workloadSpec(3))
	if status != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", status)
	}
	if v := metricValue(t, ts, "peiserved_jobs_rejected"); v != 1 {
		t.Fatalf("peiserved_jobs_rejected = %d, want 1", v)
	}
	close(release)
}

// TestRetryAfterOnBackpressure: a 429 carries a queue-depth-derived
// Retry-After hint (1s headroom + backlog amortized over the worker pool).
func TestRetryAfterOnBackpressure(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	opts := Options{Workers: 1, QueueDepth: 2}
	opts.runJob = func(ctx context.Context, spec pei.JobSpec, w io.Writer, ro pei.RunJobOptions) error {
		started <- struct{}{}
		<-release
		fmt.Fprintln(w, "ok")
		return nil
	}
	_, ts := newTestServer(t, opts)
	defer close(release)

	if status, _ := submit(t, ts, workloadSpec(1)); status != http.StatusAccepted {
		t.Fatalf("first submit: %d", status)
	}
	<-started // worker busy; both queue slots free
	for seed := int64(2); seed <= 3; seed++ {
		if status, _ := submit(t, ts, workloadSpec(seed)); status != http.StatusAccepted {
			t.Fatalf("queued submit seed %d: %d", seed, status)
		}
	}
	body, _ := json.Marshal(workloadSpec(4))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	// queued=2, workers=1: 1 + 2/1 = 3 seconds.
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want 3", got)
	}
}

// TestRetryAfterSeconds pins the formula's edges.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct{ queued, workers, want int }{
		{0, 2, 1},
		{8, 2, 5},
		{1000, 1, 60}, // capped
		{4, 0, 5},     // degenerate pool clamps to 1
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.workers); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d", c.queued, c.workers, got, c.want)
		}
	}
}

// TestSSEStream is the satellite SSE test: a client attached to a
// running job sees queued/running state events, per-simulation progress
// events, the done state, and a final end event.
func TestSSEStream(t *testing.T) {
	release := make(chan struct{})
	opts := Options{Workers: 1, QueueDepth: 4}
	opts.runJob = func(ctx context.Context, spec pei.JobSpec, w io.Writer, ro pei.RunJobOptions) error {
		<-release
		if ro.Progress != nil {
			ro.Progress(pei.JobProgress{Cell: "bfs/small/locality", Simulations: 1})
			ro.Progress(pei.JobProgress{Cell: "bfs/small/locality", Done: true, Cycles: 1234, Simulations: 1})
		}
		fmt.Fprintln(w, "ok")
		return nil
	}
	_, ts := newTestServer(t, opts)

	_, v := submit(t, ts, workloadSpec(1))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	readUntil := func(prefix string) []string {
		t.Helper()
		var seen []string
		timeout := time.After(30 * time.Second)
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					t.Fatalf("stream ended before %q; saw: %q", prefix, seen)
				}
				seen = append(seen, l)
				if strings.HasPrefix(l, prefix) {
					return seen
				}
			case <-timeout:
				t.Fatalf("timed out waiting for %q; saw: %q", prefix, seen)
			}
		}
	}

	readUntil("event: state") // queued, streamed live before the job runs
	close(release)
	all := readUntil("event: end")
	joined := strings.Join(all, "\n")
	for _, want := range []string{
		`"state":"running"`,
		"event: progress",
		`"cycles":1234`,
		`"state":"done"`,
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("stream missing %q:\n%s", want, joined)
		}
	}
}

// TestCancelRunningJob exercises DELETE on an in-flight job: the run's
// context is cancelled and the job ends cancelled.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	opts := Options{Workers: 1, QueueDepth: 4}
	opts.runJob = func(ctx context.Context, spec pei.JobSpec, w io.Writer, ro pei.RunJobOptions) error {
		started <- struct{}{}
		<-ctx.Done() // a real run notices within one event-loop check
		return ctx.Err()
	}
	_, ts := newTestServer(t, opts)

	_, v := submit(t, ts, workloadSpec(1))
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, v.ID)
	if final.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	if n := metricValue(t, ts, "peiserved_jobs_cancelled"); n != 1 {
		t.Fatalf("peiserved_jobs_cancelled = %d", n)
	}
	// Cancelling again conflicts.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status %d, want 409", resp2.StatusCode)
	}
}

// TestCancelQueuedJob: DELETE before a worker picks the job up makes it
// terminal immediately and the worker skips it.
func TestCancelQueuedJob(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	var runs atomic.Int64
	opts := Options{Workers: 1, QueueDepth: 4}
	opts.runJob = func(ctx context.Context, spec pei.JobSpec, w io.Writer, ro pei.RunJobOptions) error {
		runs.Add(1)
		started <- struct{}{}
		<-release
		fmt.Fprintln(w, "ok")
		return nil
	}
	_, ts := newTestServer(t, opts)

	_, blocker := submit(t, ts, workloadSpec(1))
	<-started
	_, queued := submit(t, ts, workloadSpec(2))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := getJob(t, ts, queued.ID); v.State != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled immediately", v.State)
	}
	close(release)
	if v := waitTerminal(t, ts, blocker.ID); v.State != StateDone {
		t.Fatalf("blocker ended %s", v.State)
	}
	waitTerminal(t, ts, queued.ID)
	if got := runs.Load(); got != 1 {
		t.Fatalf("cancelled job still simulated (runs %d)", got)
	}
}

// TestDrainRefusesNewWork: during/after drain, healthz flips unhealthy
// and submissions bounce with 503, while in-flight jobs finish.
func TestDrainRefusesNewWork(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	opts := Options{Workers: 1, QueueDepth: 4, Logf: discardLogf}
	opts.runJob = func(ctx context.Context, spec pei.JobSpec, w io.Writer, ro pei.RunJobOptions) error {
		started <- struct{}{}
		<-release
		fmt.Fprintln(w, "ok")
		return nil
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, running := submit(t, ts, workloadSpec(1))
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain flag flips synchronously; wait for it to take effect.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := getBody(t, ts.URL+"/healthz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if status, _ := submit(t, ts, workloadSpec(9)); status != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", status)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := getJob(t, ts, running.ID); v.State != StateDone {
		t.Fatalf("in-flight job ended %s, want done (drained)", v.State)
	}
}

// TestLivenessReadinessSplit: liveness stays 200 through drain, while
// readiness and its /healthz alias flip to 503.
func TestLivenessReadinessSplit(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2, Logf: discardLogf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz/live", "/healthz/ready", "/healthz"} {
		if code, _ := getBody(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("%s before drain: %d, want 200", path, code)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain returns immediately; the flag still flips
	s.Drain(ctx)
	if code, _ := getBody(t, ts.URL+"/healthz/live"); code != http.StatusOK {
		t.Fatalf("live while draining: %d, want 200", code)
	}
	for _, path := range []string{"/healthz/ready", "/healthz"} {
		if code, _ := getBody(t, ts.URL+path); code != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: %d, want 503", path, code)
		}
	}
}

// TestEndToEndRealJob runs a real (tiny) simulation through the full
// stack twice: identical payloads, the second served from cache — the
// acceptance criterion in miniature.
func TestEndToEndRealJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	spec := workloadSpec(0)
	status, v1 := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d", status)
	}
	if final := waitTerminal(t, ts, v1.ID); final.State != StateDone {
		t.Fatalf("first job ended %s (%s)", final.State, final.Error)
	}
	_, out1 := getBody(t, ts.URL+"/v1/jobs/"+v1.ID+"/result")
	if !strings.Contains(out1, "cycles") {
		t.Fatalf("result missing report:\n%s", out1)
	}

	status, v2 := submit(t, ts, spec)
	if status != http.StatusOK || v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("resubmit: status %d state %s cacheHit %v", status, v2.State, v2.CacheHit)
	}
	_, out2 := getBody(t, ts.URL+"/v1/jobs/"+v2.ID+"/result")
	if out1 != out2 {
		t.Fatalf("payloads differ:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if hits := metricValue(t, ts, "peiserved_cache_hits"); hits != 1 {
		t.Fatalf("peiserved_cache_hits = %d, want 1", hits)
	}
	if cells := metricValue(t, ts, "peiserved_sim_cells"); cells != 1 {
		t.Fatalf("peiserved_sim_cells = %d, want 1", cells)
	}
}

// TestExperimentJobMatchesReproduce: a served experiment job renders
// the bytes pei.Reproduce renders for the same options, workload order
// included (it is the table's row order).
func TestExperimentJobMatchesReproduce(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	spec := pei.JobSpec{Experiment: "fig6", Scale: 4096, OpBudget: 1000, Workloads: []string{"pr", "bfs"}}
	status, v := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if final := waitTerminal(t, ts, v.ID); final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	_, served := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/result")

	opts := pei.DefaultReproduceOptions()
	opts.Scale, opts.OpBudget, opts.Workloads = spec.Scale, spec.OpBudget, spec.Workloads
	var want bytes.Buffer
	if err := pei.Reproduce(context.Background(), spec.Experiment, opts, &want); err != nil {
		t.Fatal(err)
	}
	if served != want.String() {
		t.Fatalf("served result differs from pei.Reproduce:\n--- served\n%s\n--- Reproduce\n%s", served, want.String())
	}
}

// TestWarmStartAcrossRestart is the serve-level warm-start acceptance
// test: two servers sharing one snapshot store (a daemon restart in
// miniature — the result cache is per-process, the snapshot dir is
// not). The first run is cold and writes checkpoints; the second
// server's result cache is empty, so it re-simulates — but resumes
// from the stored checkpoints, and its rendered result is
// byte-identical to the cold run's.
func TestWarmStartAcrossRestart(t *testing.T) {
	snaps, err := pei.OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := workloadSpec(0)

	run := func() (string, *httptest.Server) {
		_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Snapshots: snaps})
		status, v := submit(t, ts, spec)
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		if final := waitTerminal(t, ts, v.ID); final.State != StateDone {
			t.Fatalf("job ended %s (%s)", final.State, final.Error)
		}
		_, out := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/result")
		return out, ts
	}

	coldOut, coldTS := run()
	if misses := metricValue(t, coldTS, "peiserved_snapshot_misses"); misses == 0 {
		t.Fatal("cold run recorded no snapshot misses")
	}
	if written := metricValue(t, coldTS, "peiserved_snapshot_bytes_written"); written == 0 {
		t.Fatal("cold run wrote no snapshot bytes")
	}

	warmOut, warmTS := run()
	if warmOut != coldOut {
		t.Fatalf("warm result diverged from cold:\n--- cold\n%s\n--- warm\n%s", coldOut, warmOut)
	}
	if hits := metricValue(t, warmTS, "peiserved_snapshot_hits"); hits == 0 {
		t.Fatal("warm run had no snapshot hits")
	}
}

// TestExperimentsEndpointAndBadSpecs covers the discovery endpoint and
// submission validation.
func TestExperimentsEndpointAndBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	code, body := getBody(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("experiments status %d", code)
	}
	for _, want := range []string{"fig2", "ablations", "\"bfs\"", "locality"} {
		if !strings.Contains(body, want) {
			t.Fatalf("experiments missing %q:\n%s", want, body)
		}
	}

	if status, _ := submit(t, ts, pei.JobSpec{Workload: "nope"}); status != http.StatusBadRequest {
		t.Fatalf("bad workload: %d, want 400", status)
	}
	if status, _ := submit(t, ts, pei.JobSpec{Experiment: "fig99"}); status != http.StatusBadRequest {
		t.Fatalf("bad experiment: %d, want 400", status)
	}
	if status, _ := submit(t, ts, pei.JobSpec{}); status != http.StatusBadRequest {
		t.Fatalf("empty spec: %d, want 400", status)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d, want 404", resp.StatusCode)
	}
}

// TestTerminalCounterNeverLagsState pins the ordering terminate relies
// on: the jobs.cancelled / jobs.completed counters are bumped before the
// terminal state becomes visible, so a client that has just seen a job
// end reads a counter that already includes it. The test watches the
// job's state directly and reads the counter the moment it turns
// terminal, which leaves no slack for a late increment to hide in.
func TestTerminalCounterNeverLagsState(t *testing.T) {
	opts := Options{Workers: 1, QueueDepth: 4}
	opts.runJob = func(ctx context.Context, spec pei.JobSpec, w io.Writer, ro pei.RunJobOptions) error {
		if spec.Seed%2 == 0 {
			fmt.Fprintln(w, "ok")
			return nil
		}
		<-ctx.Done()
		return ctx.Err()
	}
	s, ts := newTestServer(t, opts)
	state := func(job *Job) JobState {
		job.mu.Lock()
		defer job.mu.Unlock()
		return job.state
	}
	counts := map[string]int64{}
	for i := int64(1); i <= 40; i++ {
		_, v := submit(t, ts, workloadSpec(i))
		s.mu.Lock()
		job := s.jobs[v.ID]
		s.mu.Unlock()
		metric := "jobs.completed"
		if i%2 == 1 {
			metric = "jobs.cancelled"
			for state(job) != StateRunning {
				runtime.Gosched()
			}
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		counts[metric]++
		for !state(job).terminal() {
			runtime.Gosched()
		}
		if got := s.met.get(metric); got != counts[metric] {
			t.Fatalf("job %d ended %s but %s = %d, want %d", i, state(job), metric, got, counts[metric])
		}
	}
}
