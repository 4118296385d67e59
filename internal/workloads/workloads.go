// Package workloads implements the ten data-intensive applications of
// the paper's case study (§5) as op-stream generators over the simulated
// machine: five graph kernels (ATF, BFS, PR, SP, WCC), three in-memory
// analytics kernels (HJ, HG, RP), and two machine-learning kernels (SC,
// SVM). Each workload lays its data out in the machine's simulated
// memory, emits the loads/stores/PEIs its inner loops perform, and can
// verify its functional results against a golden sequential
// implementation after the run — so coherence or atomicity bugs in the
// architecture show up as wrong answers.
package workloads

import (
	"fmt"

	"pimsim/internal/cpu"
	"pimsim/internal/graph"
	"pimsim/internal/machine"
	"pimsim/internal/snap"
)

// Size selects the input scale of Table 3.
type Size int

const (
	Small Size = iota
	Medium
	Large
)

func (s Size) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	default:
		return "large"
	}
}

// ParseSize converts "small"/"medium"/"large".
func ParseSize(s string) (Size, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("workloads: unknown size %q", s)
}

// Params configures a workload instance.
type Params struct {
	// Threads is the number of streams to build (one per core).
	Threads int
	// Size picks the Table 3 input set.
	Size Size
	// Scale divides the Table 3 input sizes (and should be paired with a
	// proportionally scaled cache configuration); 1 reproduces the paper
	// sizes.
	Scale int
	// Seed perturbs synthetic inputs (multiprogrammed runs use distinct
	// seeds).
	Seed int64
	// OpBudget caps the work ops each thread generates (the stand-in for
	// the paper's 2 B-instruction simulation budget). Supersteps still
	// run their barriers and fences so multi-threaded runs terminate
	// cleanly, but per-item bodies stop once the budget is spent. With a
	// budget set, Verify is meaningless (the run is truncated).
	OpBudget int64
	// Graph overrides the Table 3 graph selection for graph workloads
	// (used by the Figure 2/8 sweeps over the nine named graphs).
	Graph *graph.DatasetSpec
}

func (p Params) withDefaults() Params {
	if p.Threads <= 0 {
		p.Threads = 1
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	return p
}

// Workload is one benchmark application.
type Workload interface {
	// Streams allocates the workload's data in m's simulated memory and
	// returns one op stream per thread. Call once per machine.
	Streams(m *machine.Machine) []cpu.Stream
	// Verify checks functional results against a golden implementation;
	// call after the machine has run.
	Verify(m *machine.Machine) error

	// A run can be cut at superstep boundaries for checkpointing.
	// Between phases the machine drains to quiescence; Snap then
	// captures the only state that lives outside the simulated machine —
	// the generators' positions and any host-side accumulators the
	// streams' Sinks write retired PEIs' outputs into. Every workload
	// gets these methods by embedding phaseCtl (phase.go).

	// Rounds reports the total number of supersteps the workload runs.
	Rounds() int
	// SetRoundLimit caps generation at the first limit rounds (0 or
	// negative clears the cap). With a cap below Rounds(), streams
	// report exhaustion at the cap and the machine drains to a
	// checkpointable boundary; raising the cap and re-arming the cores
	// resumes generation exactly where it stopped.
	SetRoundLimit(limit int)
	// Snap codes the workload's generator state as the tail of a
	// machine snapshot stream: appended when encoding, loaded when
	// decoding into a freshly built workload whose Streams have been
	// constructed on the restore target. Only valid at a drained phase
	// boundary.
	Snap(c *snap.Coder)
}

// Names lists all workloads in the paper's order.
var Names = []string{"atf", "bfs", "pr", "sp", "wcc", "hj", "hg", "rp", "sc", "svm"}

// New constructs a workload by its paper abbreviation.
func New(name string, p Params) (Workload, error) {
	p = p.withDefaults()
	switch name {
	case "atf":
		return newATF(p), nil
	case "bfs":
		return newBFS(p), nil
	case "pr":
		return newPageRank(p), nil
	case "sp":
		return newSSSP(p), nil
	case "wcc":
		return newWCC(p), nil
	case "hj":
		return newHashJoin(p), nil
	case "hg":
		return newHistogram(p), nil
	case "rp":
		return newRadixPartition(p), nil
	case "sc":
		return newStreamcluster(p), nil
	case "svm":
		return newSVM(p), nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names)
}

// MustNew panics on unknown names (for tables of known workloads).
func MustNew(name string, p Params) Workload {
	w, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return w
}

// PartitionRange splits [0,n) into `threads` contiguous chunks and
// returns chunk t.
func PartitionRange(n, threads, t int) (lo, hi int) {
	lo = n * t / threads
	hi = n * (t + 1) / threads
	return
}

// roundDriver generates superstep-structured streams: each round emits
// per-item ops for this thread's slice, then a barrier and a pfence.
// Fill granularity is chunked so op buffers stay small.
type roundDriver struct {
	rounds  int
	barrier *cpu.Barrier
	// budget, if non-nil, is decremented by ops emitted; at zero,
	// per-item bodies are skipped (barriers/fences still run).
	budget *int64
	// drain inserts an OpDrain before each round's barrier, for phases
	// whose PEI outputs the next phase consumes host-side.
	drain bool
	items int // this thread's item count
	// beforeRound runs at the start of each round (generation time).
	beforeRound func(round int)
	// perItem emits ops for item i (thread-local index) of the round.
	perItem func(q *cpu.Queue, round, i int)
	// afterRounds optionally emits a final tail after the last barrier.
	afterRounds func(q *cpu.Queue)

	// limit, when positive, caps generation at the first limit rounds:
	// the stream reports exhaustion at the cap so the machine drains to
	// a quiescent checkpoint boundary, and raising the limit (plus
	// re-arming the core) resumes exactly where generation stopped.
	// Zero or negative means no cap.
	limit int

	round, pos int
	tailDone   bool
}

const fillChunk = 64

func (d *roundDriver) Fill(q *cpu.Queue) bool {
	if d.limit > 0 && d.round >= d.limit && d.round < d.rounds {
		return false // parked at a phase boundary
	}
	if d.round >= d.rounds {
		if d.afterRounds != nil && !d.tailDone {
			d.tailDone = true
			d.afterRounds(q)
			return true
		}
		return false
	}
	if d.pos == 0 && d.beforeRound != nil {
		d.beforeRound(d.round)
	}
	end := d.pos + fillChunk
	if end > d.items {
		end = d.items
	}
	for ; d.pos < end; d.pos++ {
		if d.budget != nil && *d.budget <= 0 {
			continue
		}
		before := q.Len()
		d.perItem(q, d.round, d.pos)
		if d.budget != nil {
			*d.budget -= int64(q.Len() - before)
		}
	}
	if d.pos >= d.items {
		if d.drain {
			q.Push(cpu.Op{Kind: cpu.OpDrain})
		}
		if d.barrier != nil {
			q.Push(cpu.Op{Kind: cpu.OpBarrier})
		}
		q.PushFence()
		d.pos = 0
		d.round++
	}
	return true
}

func (d *roundDriver) stream() *cpu.Queue {
	if d.budget != nil && *d.budget <= 0 {
		d.budget = nil // zero or negative initial budget means unlimited
	}
	return &cpu.Queue{Fill: d.Fill, Barrier: d.barrier}
}

// approxEqual compares floats with a tolerance scaled to magnitude, for
// verifying floating-point reductions whose summation order differs from
// the golden implementation's.
func approxEqual(a, b, rel float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	mag := 1.0
	if m := abs(a); m > mag {
		mag = m
	}
	if m := abs(b); m > mag {
		mag = m
	}
	return diff <= rel*mag
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
