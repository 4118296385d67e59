package serve

import (
	"io"
	"sort"
	"sync"

	"pimsim/internal/stats"
)

// metrics is the service's observability state: a stats.Registry of
// service counters (the same counter machinery the simulator itself
// uses) plus a queue-latency histogram, both guarded by one mutex
// because HTTP handlers and workers touch them concurrently.
//
// Counter names (exported at /metrics with a "peiserved_" prefix,
// dots becoming underscores):
//
//	jobs.submitted   accepted submissions (incl. cache hits + coalesced)
//	jobs.completed   jobs finished successfully
//	jobs.failed      jobs whose run returned an error
//	jobs.cancelled   jobs cancelled via DELETE
//	jobs.coalesced   submissions attached to an identical in-flight job
//	jobs.rejected    submissions bounced with 429 (queue full)
//	sim.cells        simulations started on behalf of jobs
//	sim.cycles       total simulated cycles across completed cells
//	http.requests    HTTP requests served
type metrics struct {
	mu        sync.Mutex
	reg       *stats.Registry
	queueWait *stats.Histogram // milliseconds from enqueue to worker pickup
}

func newMetrics() *metrics {
	return &metrics{
		reg:       stats.NewRegistry(),
		queueWait: stats.NewHistogram(1, 5, 10, 50, 100, 500, 1000, 5000, 15000, 60000),
	}
}

func (m *metrics) add(name string, delta int64) {
	m.mu.Lock()
	m.reg.Add(name, delta)
	m.mu.Unlock()
}

func (m *metrics) get(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Get(name)
}

func (m *metrics) observeQueueWait(ms int64) {
	m.mu.Lock()
	m.queueWait.Observe(ms)
	m.mu.Unlock()
}

// write renders the full Prometheus exposition: the registry snapshot
// (after merging in the caller-supplied point-in-time gauges) plus the
// queue-wait histogram.
func (m *metrics) write(w io.Writer, gauges map[string]int64) {
	// Merge gauges in sorted key order: Registry.Set interns names on
	// first use, so iterating the map directly would make the registry's
	// intern order (and therefore Names()/Handle indices) depend on map
	// iteration order and differ between runs.
	names := make([]string, 0, len(gauges))
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	m.mu.Lock()
	for _, n := range names {
		m.reg.Set(n, gauges[n])
	}
	snap := m.reg.Snapshot()
	hist := *m.queueWait
	hist.Bounds = append([]int64(nil), m.queueWait.Bounds...)
	hist.Counts = append([]int64(nil), m.queueWait.Counts...)
	m.mu.Unlock()

	stats.WritePrometheus(w, "peiserved_", snap)
	hist.WritePrometheus(w, "peiserved_queue_wait_ms")
}
