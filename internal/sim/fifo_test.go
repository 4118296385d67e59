package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceModel drives random pushes and pops against a
// plain slice. Bursts of pushes after partial drains make the ring grow
// while its contents wrap around the end of the buffer.
func TestFIFOMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var model []int
	next := 0
	wrappedGrows := 0
	for step := 0; step < 200_000; step++ {
		if rng.Intn(100) < 52 || len(model) == 0 {
			if q.n == len(q.buf) && q.head != 0 {
				wrappedGrows++
			}
			q.Push(next)
			model = append(model, next)
			next++
		} else {
			if got := q.Peek(); got != model[0] {
				t.Fatalf("step %d: Peek = %d, want %d", step, got, model[0])
			}
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
	}
	for len(model) > 0 {
		if got := q.Pop(); got != model[0] {
			t.Fatalf("drain: Pop = %d, want %d", got, model[0])
		}
		model = model[1:]
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue has Len %d", q.Len())
	}
	if wrappedGrows == 0 {
		t.Fatal("no growth happened while the ring was wrapped")
	}
}

// TestFIFOPopZeroesSlot checks that a popped element leaves nothing
// reachable behind it in the buffer.
func TestFIFOPopZeroesSlot(t *testing.T) {
	var q FIFO[*int]
	x := new(int)
	q.Push(x)
	q.Push(new(int))
	if q.Pop() != x {
		t.Fatal("Pop returned the wrong element")
	}
	for i, p := range q.buf {
		if p == x {
			t.Fatalf("popped pointer still held in slot %d", i)
		}
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	for name, op := range map[string]func(*FIFO[int]){
		"Peek": func(q *FIFO[int]) { q.Peek() },
		"Pop":  func(q *FIFO[int]) { q.Pop() },
	} {
		t.Run(name, func(t *testing.T) {
			var q FIFO[int]
			q.Push(1)
			q.Pop()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an empty FIFO did not panic", name)
				}
			}()
			op(&q)
		})
	}
}

// TestFIFOCapacityBoundedByPeak runs a million operations with a
// bounded but never-empty backlog: storage must track the peak number
// of live elements, not the number of pushes.
func TestFIFOCapacityBoundedByPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var q FIFO[int]
	q.Push(0)
	peak := 1
	for i := 0; i < 1_000_000; i++ {
		if q.Len() < 2 || (q.Len() < 100 && rng.Intn(2) == 0) {
			q.Push(i)
		} else {
			q.Pop()
		}
		if q.Len() > peak {
			peak = q.Len()
		}
	}
	if len(q.buf) > 2*peak {
		t.Fatalf("capacity %d after 1M operations, peak live %d", len(q.buf), peak)
	}
}

// TestFIFOSteadyStateAllocs pins a queue that never drains to zero
// allocations once its ring has grown to the backlog's peak.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	var q FIFO[Cont]
	q.Push(Cont{})
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 100_000; i++ {
			q.Push(Cont{})
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("backlogged FIFO allocates %.0f objects per 100k push/pop pairs, want 0", allocs)
	}
}
