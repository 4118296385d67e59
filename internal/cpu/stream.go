package cpu

import "pimsim/internal/pim"

// Stream is the op source a core executes: a Queue, which carries the
// stream's barrier, PEI sink and vector operands along with its ops.
type Stream = *Queue

// Queue is a refillable op buffer for writing workload generators as
// batch producers: Fill is called whenever the buffer runs dry and
// should Push the next batch (one outer-loop iteration's worth of ops),
// returning false when the program is over. Using a Queue keeps workload
// code a natural loop body instead of a hand-written state machine.
type Queue struct {
	// Fill produces the next batch. May be nil for a pre-filled queue.
	Fill func(q *Queue) bool
	// Barrier is where the stream's OpBarrier ops arrive.
	Barrier *Barrier
	// Sink, if set, receives each of the stream's PEIs at retire.
	Sink Sink
	// Vectors holds the vector input operands OpPEIVec ops index by N;
	// threads of one workload share one table, built once.
	Vectors [][]byte

	buf  []Op
	head int
}

// Push appends an op to the buffer.
func (q *Queue) Push(op Op) { q.buf = append(q.buf, op) }

// PushCompute, PushLoad, PushStore, PushFence are convenience emitters.
func (q *Queue) PushCompute(cycles int64) { q.Push(Op{Kind: OpCompute, N: uint64(max(cycles, 0))}) }
func (q *Queue) PushLoad(a uint64)        { q.Push(Op{Kind: OpLoad, Addr: a}) }
func (q *Queue) PushStore(a uint64)       { q.Push(Op{Kind: OpStore, Addr: a}) }
func (q *Queue) PushFence()               { q.Push(Op{Kind: OpFence}) }

// PushPEI emits the PIM-enabled instruction op at target. n is its
// scalar input operand, or, for the vector-input ops (euclid, dot), an
// index into q.Vectors; tag comes back to q.Sink with the retired PEI.
func (q *Queue) PushPEI(op pim.OpKind, target, n uint64, tag uint32) {
	kind := OpPEI
	if pim.Ops[op].InputBytes > 8 {
		kind = OpPEIVec
	}
	q.Push(Op{Kind: kind, PEIOp: op, Tag: tag, Addr: target, N: n})
}

// retainOps bounds the op capacity a drained Queue keeps for its next
// batch. In peiperf's cells, batches on Small inputs and in the harness
// figures stay under 8K ops, while on Large inputs the few that hold an
// R-MAT hub's edges reach 36K-47K ops. Such a buffer is dropped once
// drained rather than held for the rest of the run. A ceiling of 8K ops
// would also drop, and regrow, Large inputs' ordinary buffers.
const retainOps = 1 << 15

// Len reports buffered ops not yet consumed.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Next returns the next op, or ok=false at the end of the program.
func (q *Queue) Next() (Op, bool) {
	for q.head >= len(q.buf) {
		if cap(q.buf) > retainOps {
			q.buf = nil
		}
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
