// Health endpoints and the backpressure hint: the liveness/readiness
// split an orchestrator gates on, and the Retry-After value a 429
// carries.

package serve

import (
	"fmt"
	"io"
	"net/http"
)

// handleLive is liveness: the process is up and serving HTTP. It stays
// 200 through drain so an orchestrator doesn't kill a draining server.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReady is readiness: 503 once Drain has begun. /healthz is an
// alias of it, so existing health checks keep their drain-aware
// semantics.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// retryAfterSeconds derives the Retry-After hint from queue load: one
// second of headroom plus the queue's depth amortized over the worker
// pool, capped so a deep backlog never advertises an absurd wait.
func retryAfterSeconds(queued, workers int) int {
	if workers < 1 {
		workers = 1
	}
	sec := 1 + queued/workers
	if sec > 60 {
		sec = 60
	}
	return sec
}
