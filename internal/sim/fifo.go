package sim

// FIFO is a first-in first-out queue on a ring buffer. It backs every
// wait queue of the simulated hardware (operand-buffer waiters, PIM
// directory waiters, MSHR-full parked misses). Its capacity is a power
// of two that doubles only when every slot is live, so storage is
// bounded by twice the peak occupancy no matter how many pushes and
// pops a sustained backlog performs. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int // live elements
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Peek returns the head element without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek on empty FIFO")
	}
	return q.buf[q.head]
}

// Pop removes and returns the head element. The vacated slot is zeroed
// so a popped handler is not kept reachable. It panics on an empty
// queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles a full ring, unwrapping it so the head lands at slot 0.
func (q *FIFO[T]) grow() {
	c := 2 * len(q.buf)
	if c == 0 {
		c = 4
	}
	buf := make([]T, c)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf = buf
	q.head = 0
}
