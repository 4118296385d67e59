// Command peiserved serves the PEI simulator over HTTP: experiments and
// workload runs become queued jobs with cached, content-addressed
// results, live SSE progress, and Prometheus metrics.
//
//	peiserved -addr :8080 -workers 4 -queue-depth 128 -cache-mb 256
//
// API (see README "Serving" for curl examples):
//
//	POST   /v1/jobs             submit a pei.JobSpec (JSON); 200 on a
//	                            cache hit, 202 when queued, 429 (with a
//	                            queue-depth-derived Retry-After) when full
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result rendered result (text/plain)
//	GET    /v1/jobs/{id}/events live progress (Server-Sent Events)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/experiments      runnable experiments/workloads/modes
//	GET    /metrics             Prometheus text format
//	GET    /healthz             readiness alias (503 while draining)
//	GET    /healthz/live        liveness (200 while the process is up)
//	GET    /healthz/ready       readiness
//
// SIGTERM/SIGINT stop accepting new jobs, drain queued and running
// jobs (bounded by -drain-timeout), then exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pimsim/internal/serve"
	"pimsim/pei"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 2, "jobs simulated concurrently")
		queueDepth   = flag.Int("queue-depth", 64, "max queued jobs before 429")
		cacheMB      = flag.Int64("cache-mb", 64, "result-cache LRU budget in MiB")
		parallel     = flag.Int("parallel", 0, "simulation cells per job (0 = GOMAXPROCS/workers)")
		snapshotDir  = flag.String("snapshot-dir", "", "checkpoint store directory for simulation warm starts (empty = disabled)")
		snapshotMB   = flag.Int64("snapshot-mb", 256, "snapshot store LRU budget in MiB (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "max time to drain jobs on shutdown")
	)
	flag.Parse()

	// Refuse out-of-range values instead of letting serve.New's
	// defaults replace them behind a startup log that prints the bad
	// value. A snapshot directory starting with "-" is virtually always
	// a swallowed flag (`-snapshot-dir -snapshot-mb 512` makes
	// "-snapshot-mb" the directory value); refuse it instead of
	// littering the working tree with un-globbable paths.
	var refusal string
	switch {
	case *workers < 1:
		refusal = fmt.Sprintf("-workers %d: want >= 1", *workers)
	case *queueDepth < 1:
		refusal = fmt.Sprintf("-queue-depth %d: want >= 1", *queueDepth)
	case *cacheMB < 1:
		refusal = fmt.Sprintf("-cache-mb %d: want >= 1", *cacheMB)
	case *parallel < 0:
		refusal = fmt.Sprintf("-parallel %d: want >= 0 (0 = GOMAXPROCS/workers)", *parallel)
	case *snapshotMB < 0:
		refusal = fmt.Sprintf("-snapshot-mb %d: want >= 0 (0 = unlimited)", *snapshotMB)
	case *drainTimeout < 0:
		refusal = fmt.Sprintf("-drain-timeout %s: want >= 0", *drainTimeout)
	case strings.HasPrefix(*snapshotDir, "-"):
		refusal = fmt.Sprintf("-snapshot-dir %q looks like a flag, not a directory (missing value?)", *snapshotDir)
	}
	if refusal != "" {
		fmt.Fprintln(os.Stderr, "peiserved:", refusal)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "peiserved ", log.LstdFlags|log.Lmsgprefix)

	var snaps *pei.SnapshotStore
	if *snapshotDir != "" {
		var err error
		if snaps, err = pei.OpenSnapshotStore(*snapshotDir, *snapshotMB<<20); err != nil {
			fmt.Fprintln(os.Stderr, "peiserved:", err)
			os.Exit(1)
		}
		logger.Printf("snapshots enabled dir=%s budget-mb=%d", *snapshotDir, *snapshotMB)
	}

	srv := serve.New(serve.Options{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		CacheBytes:  *cacheMB << 20,
		Parallelism: *parallel,
		Snapshots:   snaps,
		Logf:        logger.Printf,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("listening addr=%s workers=%d queue-depth=%d cache-mb=%d", *addr, *workers, *queueDepth, *cacheMB)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "peiserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	logger.Printf("shutdown requested; draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
	logger.Printf("bye")
}
