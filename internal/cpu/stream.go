package cpu

import "pimsim/internal/pim"

// SliceStream is a Stream over a fixed op slice (tests, tiny examples).
type SliceStream struct {
	Ops []Op
	pos int
}

// Next implements Stream.
func (s *SliceStream) Next() (Op, bool) {
	if s.pos >= len(s.Ops) {
		return Op{}, false
	}
	op := s.Ops[s.pos]
	s.pos++
	return op, true
}

// Queue is a refillable op buffer for writing workload generators as
// batch producers: Fill is called whenever the buffer runs dry and
// should Push the next batch (one outer-loop iteration's worth of ops),
// returning false when the program is over. Using a Queue keeps workload
// code a natural loop body instead of a hand-written state machine.
type Queue struct {
	// Fill produces the next batch. May be nil for a pre-filled queue.
	Fill func(q *Queue) bool

	buf  []Op
	head int
}

// Push appends an op to the buffer.
func (q *Queue) Push(op Op) { q.buf = append(q.buf, op) }

// PushCompute, PushLoad, PushStore, PushPEI, PushFence are convenience
// emitters.
func (q *Queue) PushCompute(cycles int64) { q.Push(Op{Kind: OpCompute, Cycles: cycles}) }
func (q *Queue) PushLoad(a uint64)        { q.Push(Op{Kind: OpLoad, Addr: a}) }
func (q *Queue) PushStore(a uint64)       { q.Push(Op{Kind: OpStore, Addr: a}) }

// PushPEI emits a PIM-enabled instruction.
func (q *Queue) PushPEI(p *pim.PEI) { q.Push(Op{Kind: OpPEI, PEI: p}) }

// PushFence emits a pfence.
func (q *Queue) PushFence() { q.Push(Op{Kind: OpFence}) }

// Len reports buffered ops not yet consumed.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Next implements Stream.
func (q *Queue) Next() (Op, bool) {
	for q.head >= len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
		if q.Fill == nil || !q.Fill(q) {
			return Op{}, false
		}
	}
	op := q.buf[q.head]
	q.head++
	return op, true
}
