package workloads

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pimsim/internal/graph"
)

// weighting is what a golden propagation adds to a value along an
// edge: edgeWeight if byEdge, step otherwise.
type weighting struct {
	byEdge bool
	step   uint32
}

var (
	zeroWeights = weighting{}             // wcc: a label passes unchanged
	unitWeights = weighting{step: 1}      // bfs: one level per hop
	edgeWeights = weighting{byEdge: true} // sp: edgeWeight
)

// goldenGrain is the fewest edges a graph needs for its goldens to run
// on GOMAXPROCS workers, and goldenChunk is how many frontier vertices a
// worker claims at a time. A round whose frontier fits in one chunk
// runs on the calling goroutine alone.
const goldenGrain, goldenChunk = 1 << 16, 256

// propagate is the golden engine of bfs, sp and wcc: synchronous
// min-propagation on g to its fixpoint. val holds every vertex's
// starting value, infDist for none, and receives the final ones; front
// lists the vertices the first round propagates from, and propagate
// takes it over. In each round,
// every vertex the previous round lowered offers its value at the start
// of the round, plus the edge's weight, to each successor, and a
// successor whose value is higher takes the least offer. Only a vertex
// lowered in the previous round can make an offer that lowers anything:
// every other vertex made the same offers a round earlier. So the
// values after each round, and the number of rounds, are those of a
// sweep over every vertex from a copy of the values (fullScanSSSP,
// fullSweepWCC). It returns the number of rounds, counting the last,
// which lowers nothing.
//
// While it runs, each vertex has one 32-bit word: its value, and the
// lowered bit, set while the vertex waits in the next frontier. One
// access both compares an offer and tells whether this round has
// lowered the vertex already, and the words of a graph the size of the
// full machine's (303K vertices) fit in a core's L2 cache, where the
// 64-bit values did not. Every value the goldens reach is below 16n,
// which fits while n < 2^27.
//
// Above goldenGrain a round's frontier is shared out in chunks among
// GOMAXPROCS workers, which lower values with atomic min. Every offer
// is made from a round-start value and min is order-free, so the values
// and the round count do not depend on the schedule; only the order of
// the next frontier does, and nothing reads that order.
func propagate(g *graph.Graph, val []uint64, front []int32, k weighting) int {
	n := g.NumVertices()
	if n >= 1<<27 {
		panic("workloads: golden values would overflow 32 bits")
	}
	p := &propagation{
		g: g, k: k,
		word:  make([]uint32, n),
		front: slices.Grow(front, n-len(front)),
		fval:  make([]uint32, 0, n),
	}
	for v, x := range val {
		p.word[v] = uint32(min(x, unreached))
	}
	workers := 1
	if g.NumEdges() >= goldenGrain {
		workers = runtime.GOMAXPROCS(0)
	}
	p.next = make([][]int32, workers)
	// The extra workers live for the whole call: a shared round sends
	// each one token on start, which holds a round's tokens, and waits
	// on done; closing start stops them, and propagate waits for that.
	var start chan struct{}
	var done, exited sync.WaitGroup
	if workers > 1 {
		start = make(chan struct{}, workers-1)
		exited.Add(workers - 1)
		for id := 1; id < workers; id++ {
			go p.help(id, start, &done, &exited)
		}
		defer exited.Wait()
		defer close(start)
	}
	rounds := 0
	for len(p.front) > 0 {
		p.snapshot()
		rounds++
		p.cursor.Store(0)
		if workers > 1 && len(p.front) > goldenChunk {
			done.Add(workers - 1)
			for range workers - 1 {
				start <- struct{}{}
			}
			p.relax(0, true)
			done.Wait()
		} else {
			p.relax(0, false)
		}
		p.front = p.front[:0]
		for id, next := range p.next {
			p.front = append(p.front, next...)
			p.next[id] = next[:0]
		}
	}
	for v, w := range p.word {
		if val[v] = uint64(w); w == unreached {
			val[v] = infDist
		}
	}
	return rounds
}

const (
	// lowered marks a vertex word whose vertex this round has lowered.
	lowered = 1 << 31
	// unreached is the word of a vertex propagation has not reached.
	unreached = lowered - 1
)

// propagation is one propagate call's state.
type propagation struct {
	g    *graph.Graph
	k    weighting
	word []uint32 // each vertex's value and lowered bit
	// front is the vertices the previous round lowered, and fval their
	// values at the start of this round.
	front []int32
	fval  []uint32
	// next is each worker's share of the vertices this round lowers.
	next   [][]int32
	cursor atomic.Int64 // the next unclaimed index into front
}

// snapshot starts a round: it records the frontier's values and clears
// their lowered bits.
func (p *propagation) snapshot() {
	p.fval = p.fval[:len(p.front)]
	for i, v := range p.front {
		p.word[v] &^= lowered
		p.fval[i] = p.word[v]
	}
}

// help is one of propagate's extra workers: it relaxes a round for
// each token on start, until start closes.
func (p *propagation) help(id int, start <-chan struct{}, done, exited *sync.WaitGroup) {
	defer exited.Done()
	for range start {
		p.relax(id, true)
		done.Done()
	}
}

// relax claims chunks of the frontier until none is left and makes
// their offers; worker id lists each vertex it is first to lower this
// round. shared says other workers run the round too.
func (p *propagation) relax(id int, shared bool) {
	word, k := p.word, p.k
	offsets, edges := p.g.Offsets, p.g.Edges
	front, fval := p.front, p.fval
	next := p.next[id]
	for {
		lo := int(p.cursor.Add(goldenChunk)) - goldenChunk
		if lo >= len(front) {
			break
		}
		hi := min(len(front), lo+goldenChunk)
		for i, v := range front[lo:hi] {
			succs := edges[offsets[v]:offsets[v+1]]
			if k.byEdge {
				next = offerByEdge(word, v, succs, fval[lo+i], shared, next)
			} else {
				next = offerStep(word, succs, fval[lo+i]+k.step, shared, next)
			}
		}
	}
	p.next[id] = next
}

// offerStep offers nd to each of succs and appends to next each one it
// is first to lower this round.
//
// offerStep and offerByEdge keep each edge's work to a minimum, and
// stay out of relax's loop: the loads of successors' words are random,
// and the fewer instructions an edge takes, the more of those loads the
// core keeps in flight. With both loops inside relax, or with
// edgeWeight computed for bfs too, the bfs golden ran 40-100% slower on
// one core.
func offerStep(word []uint32, succs []int32, nd uint32, shared bool, next []int32) []int32 {
	for _, s := range succs {
		if nd < atomic.LoadUint32(&word[s])&^lowered && lower(&word[s], nd, shared) {
			next = append(next, s)
		}
	}
	return next
}

// offerByEdge is offerStep for v's offers of dv plus each edge's weight.
func offerByEdge(word []uint32, v int32, succs []int32, dv uint32, shared bool, next []int32) []int32 {
	for _, s := range succs {
		nd := dv + uint32(edgeWeight(int(v), s))
		if nd < atomic.LoadUint32(&word[s])&^lowered && lower(&word[s], nd, shared) {
			next = append(next, s)
		}
	}
	return next
}

// lower sets the vertex word *x to nd with its lowered bit, and reports
// whether the bit was clear: whether this is the round's first lowering
// of the vertex. The caller has seen nd below the word's value; if
// other workers share the round, lower swaps by compare-and-swap, and
// only while nd is below. A lone worker stores plainly: a locked
// instruction waits for every load in flight, which cost the serial wcc
// golden half its speed.
func lower(x *uint32, nd uint32, shared bool) bool {
	if !shared {
		old := *x
		*x = nd | lowered
		return old&lowered == 0
	}
	for {
		old := atomic.LoadUint32(x)
		if nd >= old&^lowered {
			return false
		}
		if atomic.CompareAndSwapUint32(x, old, nd|lowered) {
			return old&lowered == 0
		}
	}
}
