package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pimsim/pei"
)

// Options configures a Server.
type Options struct {
	// Workers is the worker-pool width: how many jobs simulate
	// concurrently (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// CacheBytes is the result cache's LRU byte budget (default 64 MiB).
	CacheBytes int64
	// Parallelism is the per-job simulation-cell concurrency handed to
	// pei.RunJob (default GOMAXPROCS / Workers, min 1, so a full worker
	// pool roughly saturates the machine).
	Parallelism int
	// Snapshots, if non-nil, enables simulation warm starts: every job
	// resumes its cells from phase-boundary checkpoints in this store
	// and writes new ones back (open one with pei.OpenSnapshotStore,
	// typically rooted beside the daemon's working data with an LRU
	// byte budget). Store activity is exported at /metrics as
	// snapshot.* counters.
	Snapshots *pei.SnapshotStore
	// Logf receives one structured line per HTTP request and per job
	// transition (default log.Printf).
	Logf func(format string, args ...any)

	// now and runJob are test seams.
	now    func() time.Time
	runJob func(ctx context.Context, spec pei.JobSpec, w io.Writer, opts pei.RunJobOptions) error
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0) / o.Workers
		if o.Parallelism < 1 {
			o.Parallelism = 1
		}
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.now == nil {
		o.now = time.Now //peilint:allow simdeterm injectable wall clock for job timestamps; tests override Options.now
	}
	if o.runJob == nil {
		o.runJob = pei.RunJob //peilint:allow simdeterm injectable job runner; RunJob's only wall-clock read touches snapshot-store LRU mtimes, job output stays deterministic
	}
	return o
}

// Server is the simulation-as-a-service front end. Create with New,
// expose via Handler, stop with Drain.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	cache *resultCache
	met   *metrics

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*Job // digest -> queued/running leader
	seq      int
	draining bool

	queue chan *Job
	wg    sync.WaitGroup
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		cache:    newResultCache(opts.CacheBytes),
		met:      newMetrics(),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		queue:    make(chan *Job, opts.QueueDepth),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleReady) // back-compat alias for readiness
	s.mux.HandleFunc("GET /healthz/live", s.handleLive)
	s.mux.HandleFunc("GET /healthz/ready", s.handleReady)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler: the API mux wrapped in
// request logging and the request counter.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.opts.now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		s.met.add("http.requests", 1)
		s.opts.Logf("http method=%s path=%s status=%d dur=%s",
			r.Method, r.URL.Path, rec.status, s.opts.now().Sub(start).Round(time.Microsecond))
	})
}

// statusRecorder captures the response status for the request log.
// Flush is forwarded so SSE streaming works through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Drain stops accepting jobs, lets queued and running jobs finish, and
// waits for the worker pool to exit (bounded by ctx).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- submission and the worker pool ---

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec pei.JobSpec
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &spec)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parsing job spec: %w", err))
		return
	}
	norm, _, err := spec.Normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	digest, err := norm.Digest()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return
	}
	now := s.opts.now()
	job := s.newJobLocked(norm, digest, now)

	// Content-addressed fast path: an identical completed job is served
	// straight from the cache.
	if out, ok := s.cache.Get(digest); ok {
		s.mu.Unlock()
		s.met.add("jobs.submitted", 1)
		s.completeFromCache(job, out, now)
		s.opts.Logf("job id=%s digest=%.12s state=done cache=hit", job.ID, digest)
		writeJSON(w, http.StatusOK, job.view())
		return
	}

	// Coalesce onto an identical queued/running job: no queue slot, no
	// second simulation; the follower completes from the cache when the
	// leader finishes.
	if leader, ok := s.inflight[digest]; ok {
		leader.mu.Lock()
		attached := !leader.state.terminal()
		if attached {
			leader.followers = append(leader.followers, job)
		}
		leader.mu.Unlock()
		if attached {
			s.mu.Unlock()
			s.met.add("jobs.submitted", 1)
			s.met.add("jobs.coalesced", 1)
			job.events.append("state", map[string]any{"state": StateQueued, "coalescedWith": leader.ID})
			s.opts.Logf("job id=%s digest=%.12s state=queued coalesced=%s", job.ID, digest, leader.ID)
			writeJSON(w, http.StatusAccepted, job.view())
			return
		}
		// The leader went terminal between the cache probe and here;
		// fall through to enqueue a fresh run.
	}

	select {
	case s.queue <- job:
		s.inflight[digest] = job
		s.mu.Unlock()
	default:
		delete(s.jobs, job.ID)
		queued := len(s.queue)
		s.mu.Unlock()
		s.met.add("jobs.rejected", 1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(queued, s.opts.Workers)))
		httpError(w, http.StatusTooManyRequests, fmt.Errorf("job queue full (depth %d)", s.opts.QueueDepth))
		return
	}
	s.met.add("jobs.submitted", 1)
	job.events.append("state", map[string]any{"state": StateQueued})
	s.opts.Logf("job id=%s digest=%.12s state=queued", job.ID, digest)
	writeJSON(w, http.StatusAccepted, job.view())
}

// newJobLocked allocates and registers a Job (s.mu held).
func (s *Server) newJobLocked(spec pei.JobSpec, digest string, now time.Time) *Job {
	s.seq++
	job := &Job{
		ID:      fmt.Sprintf("j%06d", s.seq),
		Spec:    spec,
		Digest:  digest,
		state:   StateQueued,
		created: now,
		events:  newEventLog(),
		done:    make(chan struct{}),
	}
	s.jobs[job.ID] = job
	return job
}

// completeFromCache finishes a job instantly with cached output.
func (s *Server) completeFromCache(job *Job, out []byte, now time.Time) {
	job.mu.Lock()
	job.output = out
	job.cacheHit = true
	job.mu.Unlock()
	job.setState(StateDone, now, s.countTerminal(StateDone))
}

// countTerminal returns the setState hook that bumps the counter of a
// terminal state: jobs.completed, jobs.cancelled or jobs.failed.
func (s *Server) countTerminal(state JobState) func() {
	name := map[JobState]string{
		StateDone:      "jobs.completed",
		StateCancelled: "jobs.cancelled",
		StateFailed:    "jobs.failed",
	}[state]
	return func() { s.met.add(name, 1) }
}

func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runOne(job)
	}
}

func (s *Server) runOne(job *Job) {
	start := s.opts.now()
	s.met.observeQueueWait(start.Sub(job.created).Milliseconds())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job.mu.Lock()
	if job.state.terminal() {
		// Cancelled while queued; handleCancel already finished it.
		job.mu.Unlock()
		return
	}
	if job.cancelled {
		// Cancel raced with dequeue; finish it here (terminate is
		// idempotent, so overlapping with handleCancel is safe).
		job.mu.Unlock()
		s.terminate(job, StateCancelled, nil, nil)
		return
	}
	job.cancel = cancel
	job.mu.Unlock()

	if !job.setState(StateRunning, start, nil) {
		return
	}
	s.opts.Logf("job id=%s digest=%.12s state=running", job.ID, job.Digest)

	var out bytes.Buffer
	err := s.opts.runJob(ctx, job.Spec, &out, pei.RunJobOptions{
		Parallelism: s.opts.Parallelism,
		Snapshots:   s.opts.Snapshots,
		Progress: func(p pei.JobProgress) {
			if p.Done {
				s.met.add("sim.cycles", p.Cycles)
			} else {
				s.met.add("sim.cells", 1)
			}
			job.events.append("progress", p)
		},
	})
	state := StateDone
	if err != nil {
		job.mu.Lock()
		cancelled := job.cancelled
		job.mu.Unlock()
		if cancelled || errors.Is(err, context.Canceled) {
			state = StateCancelled
		} else {
			state = StateFailed
		}
	}
	s.terminate(job, state, out.Bytes(), err)
}

// terminate moves a job to a terminal state: removes it from the
// in-flight index, populates the result cache on success, completes or
// fails any coalesced followers, and updates the service counters.
// Safe to call from both the worker and the cancel handler; only the
// first terminal transition counts.
func (s *Server) terminate(job *Job, state JobState, out []byte, err error) {
	now := s.opts.now()

	s.mu.Lock()
	if s.inflight[job.Digest] == job {
		delete(s.inflight, job.Digest)
	}
	s.mu.Unlock()

	job.mu.Lock()
	followers := job.followers
	job.followers = nil
	if state == StateDone {
		job.output = out
	} else if state == StateFailed && err != nil {
		job.errMsg = err.Error()
	}
	job.mu.Unlock()

	if state == StateDone {
		s.cache.Put(job.Digest, out)
	}
	if job.setState(state, now, s.countTerminal(state)) {
		s.opts.Logf("job id=%s digest=%.12s state=%s dur=%s",
			job.ID, job.Digest, state, now.Sub(job.created).Round(time.Millisecond))
	}

	// Followers complete through the cache — each one is a real cache
	// hit — or inherit the leader's fate.
	for _, f := range followers {
		if state == StateDone {
			if cached, ok := s.cache.Get(f.Digest); ok {
				s.completeFromCache(f, cached, now)
				continue
			}
		}
		f.mu.Lock()
		f.errMsg = fmt.Sprintf("coalesced onto job %s, which ended %s", job.ID, state)
		f.mu.Unlock()
		f.setState(StateFailed, now, s.countTerminal(StateFailed))
	}
}

// --- read-side handlers ---

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return nil
	}
	return job
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if job := s.lookup(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.view())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// Job IDs are zero-padded sequence numbers: lexicographic order is
	// submission order.
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	state, out := job.state, job.output
	job.mu.Unlock()
	if state != StateDone {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", job.ID, state))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	if job.state.terminal() {
		state := job.state
		job.mu.Unlock()
		httpError(w, http.StatusConflict, fmt.Errorf("job %s already %s", job.ID, state))
		return
	}
	job.cancelled = true
	cancel := job.cancel
	job.mu.Unlock()

	if cancel != nil {
		// A worker owns the job: cancelling the context aborts the
		// simulation within one event-loop check, and the worker
		// finishes the job as cancelled.
		cancel()
	} else {
		// Still queued (or a coalesced follower): terminal immediately;
		// a worker that later dequeues it skips it.
		s.terminate(job, StateCancelled, nil, nil)
	}
	s.opts.Logf("job id=%s cancel requested", job.ID)
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	idx := 0
	for {
		evs, closed, wake := job.events.next(idx)
		for _, ev := range evs {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
		}
		if len(evs) > 0 {
			idx += len(evs)
			flusher.Flush()
		}
		if closed && len(evs) == 0 {
			fmt.Fprintf(w, "event: end\ndata: %s\n\n", mustJSON(job.view()))
			flusher.Flush()
			return
		}
		if len(evs) == 0 {
			select {
			case <-wake:
			case <-r.Context().Done():
				return
			}
		}
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments": pei.Experiments(),
		"workloads":   pei.WorkloadNames,
		"sizes":       []string{"small", "medium", "large"},
		"modes":       []string{"host", "pim", "locality", "ideal"},
	})
}

// countJobStates tallies jobs by lifecycle state for the metrics
// surface.
func (s *Server) countJobStates() (queued, running int64) {
	s.mu.Lock()
	//peilint:allow simdeterm commutative count of job states; no iteration order escapes
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	return queued, running
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, running := s.countJobStates()
	cs := s.cache.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauges := map[string]int64{
		"jobs.queued":     queued,
		"jobs.running":    running,
		"cache.hits":      cs.Hits,
		"cache.misses":    cs.Misses,
		"cache.evictions": cs.Evicted,
		"cache.entries":   int64(cs.Entries),
		"cache.bytes":     cs.Bytes,
		"cache.budget":    s.opts.CacheBytes,
		"workers":         int64(s.opts.Workers),
		"queue.depth":     int64(s.opts.QueueDepth),
	}
	if s.opts.Snapshots != nil {
		ss := s.opts.Snapshots.Stats()
		gauges["snapshot.hits"] = ss.Hits
		gauges["snapshot.misses"] = ss.Misses
		gauges["snapshot.bytes_written"] = ss.BytesWritten
		gauges["snapshot.evictions"] = ss.Evictions
		gauges["snapshot.entries"] = int64(ss.Entries)
		gauges["snapshot.bytes"] = ss.Bytes
	}
	s.met.write(w, gauges)
}

// --- small helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error(), "status": status})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{}`)
	}
	return b
}
