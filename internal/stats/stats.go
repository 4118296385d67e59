// Package stats provides the named counters and simple distributions that
// simulator components report into and that the experiment harness reads
// out of. A Registry is plain data: no locking is needed because the
// simulator is single-threaded.
//
// Counters live in a flat []int64. Names are interned once — at component
// construction time via Counter, or lazily by the string-keyed methods —
// and every per-event update goes through a Handle, which is a plain
// index into the value array. The string-keyed Get/Set/Snapshot
// methods remain for the read side (harness, energy model, tests), where
// a map lookup per run is irrelevant.
package stats

import "sort"

// Registry holds named counters. Counters are created on first use.
type Registry struct {
	index map[string]int
	names []string // interning order; parallel to vals
	vals  []int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Handle is a pre-resolved counter: the name has been interned and the
// handle holds its slot in the registry's flat value array. Updating
// through a Handle touches no map and allocates nothing, which is what
// the simulated hot path (every cache hit, DRAM access, link flit, PMU
// decision) needs. The zero Handle is not usable; obtain one from
// Registry.Counter.
type Handle struct {
	r   *Registry
	idx int32
}

// Counter interns name (idempotently) and returns its handle. Call at
// component construction time, not per event.
func (r *Registry) Counter(name string) Handle {
	return Handle{r: r, idx: int32(r.intern(name))}
}

func (r *Registry) intern(name string) int {
	if i, ok := r.index[name]; ok {
		return i
	}
	i := len(r.vals)
	r.index[name] = i
	r.names = append(r.names, name)
	r.vals = append(r.vals, 0)
	return i
}

// Inc increments the counter by one.
func (h Handle) Inc() { h.r.vals[h.idx]++ }

// Add increments the counter by delta.
func (h Handle) Add(delta int64) { h.r.vals[h.idx] += delta }

// Get returns the counter's current value.
func (h Handle) Get() int64 { return h.r.vals[h.idx] }

// Set overwrites the counter.
func (h Handle) Set(v int64) { h.r.vals[h.idx] = v }

// Name returns the counter's interned name.
func (h Handle) Name() string { return h.r.names[h.idx] }

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	r.vals[r.intern(name)] += delta
}

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Get returns the value of the named counter (zero if never touched).
// A missing name is not interned, so probing never grows the registry.
func (r *Registry) Get(name string) int64 {
	if i, ok := r.index[name]; ok {
		return r.vals[i]
	}
	return 0
}

// Set overwrites the named counter.
func (r *Registry) Set(name string, v int64) { r.vals[r.intern(name)] = v }

// Names returns all counter names in sorted order.
func (r *Registry) Names() []string {
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of all counters.
func (r *Registry) Snapshot() map[string]int64 {
	m := make(map[string]int64, len(r.names))
	for i, n := range r.names {
		m[n] = r.vals[i]
	}
	return m
}

// Histogram is a fixed-bucket histogram for latency-style distributions.
type Histogram struct {
	// Bounds are the inclusive upper bounds of each bucket; values above
	// the last bound land in the overflow bucket.
	Bounds []int64
	Counts []int64
	// Overflow counts samples above the last bound.
	Overflow int64
	// N, Sum, Max summarize all observed samples. Max is seeded from the
	// first sample, so all-negative streams report a real maximum.
	N   int64
	Sum int64
	Max int64
}

// NewHistogram creates a histogram with the given bucket upper bounds,
// which must be strictly increasing.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds))}
}

// Observe records one sample. The bucket is found by binary search, so
// wide histograms cost O(log buckets) per sample.
func (h *Histogram) Observe(v int64) {
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
	// First bucket whose upper bound admits v (bounds strictly increase).
	lo, hi := 0, len(h.Bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.Bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(h.Bounds) {
		h.Overflow++
		return
	}
	h.Counts[lo]++
}

// Mean returns the mean of all samples, or zero if none were observed.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}
