package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the simulator. Start and
// End are seconds since the rep began; Trace names the request the span
// belongs to (workload/rep or workload/rep/cell). IDs are unique within a
// rep, and Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Trace  string  `json:"trace"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// recorder keeps a rep's spans in memory; they are written out when the
// benchmark ends. Harness progress callbacks arrive from pool workers, so
// it is safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.t0).Seconds() }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, trace string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Trace: trace, Start: r.now()})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.now()
}

// timed runs fn inside a span.
func (r *recorder) timed(name, trace string, parent int, fn func() error) error {
	id := r.begin(name, trace, parent)
	defer r.end(id)
	return fn()
}

// total sums the durations of the spans with the given names.
func total(spans []span, names ...string) float64 {
	var sum float64
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				sum += s.End - s.Start
			}
		}
	}
	return sum
}

// selfTimes returns, per span name, the summed span time not covered by
// the span's children. Concurrent children (harness cells) may overlap;
// their union counts once.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals within s.
func covered(s span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end float64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			sum += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			sum += v[1] - end
			end = v[1]
		}
	}
	return sum
}
