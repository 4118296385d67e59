package pim

import (
	"pimsim/internal/addr"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

// Directory is the PIM directory of §4.3: a direct-mapped, tag-less
// array of reader–writer locks indexed by the XOR-folded target block
// address. Distinct blocks may alias the same entry (a false positive
// serializes them — harmless for correctness); the absence of tags means
// there are never false negatives.
//
// Each entry admits multiple concurrent readers or one writer. Arriving
// writers bar new readers (write starvation avoidance), and a second
// writer waits for the first (the 1-bit writer counter). Waiters queue
// FIFO.
type Directory struct {
	k        *sim.Kernel
	cBlocked stats.Handle

	// latency is the directory access time added to every acquire.
	latency sim.Cycle

	// ideal gives infinite entries at zero latency (Ideal-Host, §7.6):
	// every block gets its own lock.
	ideal      bool
	entries    []dirEntry
	indexBits  uint
	idealLocks map[uint64]*dirEntry

	// outstandingWriters tracks writer PEIs holding or waiting for any
	// entry; pfence drains when it reaches zero.
	outstandingWriters int
	fenceWaiters       []sim.Cont

	free []*dirTxn // recycled acquire/fence transactions
}

type dirWaiter struct {
	writer  bool
	granted sim.Cont
}

// dirTxn carries one acquire or fence request across the directory
// access latency; it is released at dispatch, before the grant logic
// runs, so a synchronously granted continuation can re-enter the pool.
type dirTxn struct {
	d       *Directory
	target  uint64
	writer  bool
	fence   bool
	granted sim.Cont
}

func (t *dirTxn) OnEvent(sim.EventArg) {
	d := t.d
	target, writer, fence, granted := t.target, t.writer, t.fence, t.granted
	d.putTxn(t)
	if fence {
		if d.outstandingWriters == 0 {
			granted.Invoke()
			return
		}
		d.fenceWaiters = append(d.fenceWaiters, granted)
		return
	}
	// Resolve the entry at dispatch time: ideal-mode entries are
	// garbage-collected when idle, so a pointer captured at request
	// time could be orphaned by an intervening release.
	e := d.entryFor(target)
	if d.canGrant(e, writer) {
		d.grant(e, writer)
		granted.Invoke()
		return
	}
	d.cBlocked.Inc()
	e.queue.Push(dirWaiter{writer: writer, granted: granted})
	if writer {
		e.writerWaiting++
	}
}

func (d *Directory) getTxn() *dirTxn {
	if n := len(d.free); n > 0 {
		t := d.free[n-1]
		d.free = d.free[:n-1]
		t.d = d
		return t
	}
	return &dirTxn{d: d}
}

func (d *Directory) putTxn(t *dirTxn) {
	if t.d == nil {
		panic("pim: directory transaction double-released")
	}
	*t = dirTxn{}
	d.free = append(d.free, t)
}

type dirEntry struct {
	readers int  // active reader PEIs
	writer  bool // active writer PEI
	// writerWaiting marks a queued writer; new readers must queue behind
	// it rather than overtaking (non-readable state in the paper).
	writerWaiting int
	queue         sim.FIFO[dirWaiter] // blocked requests in arrival order
}

// NewDirectory creates a directory with the given entry count (rounded
// up to a power of two) or an ideal one if entries <= 0 or ideal is set.
func NewDirectory(k *sim.Kernel, entries int, latency sim.Cycle, ideal bool, reg *stats.Registry) *Directory {
	d := &Directory{k: k, cBlocked: reg.Counter("pmu.dir_blocked"), latency: latency, ideal: ideal}
	if ideal {
		d.idealLocks = make(map[uint64]*dirEntry)
		d.latency = 0
		return d
	}
	n := 1
	bits := uint(0)
	for n < entries {
		n <<= 1
		bits++
	}
	d.entries = make([]dirEntry, n)
	d.indexBits = bits
	if bits == 0 {
		d.indexBits = 1
		d.entries = make([]dirEntry, 2)
	}
	return d
}

func (d *Directory) entryFor(target uint64) *dirEntry {
	blk := addr.BlockOf(target)
	if d.ideal {
		e, ok := d.idealLocks[blk]
		if !ok {
			e = &dirEntry{}
			d.idealLocks[blk] = e
		}
		return e
	}
	return &d.entries[addr.XORFold(blk, d.indexBits)]
}

// RegisterWriter notes an issued writer PEI before its lock request
// reaches the directory, so a pfence issued immediately afterwards still
// waits for it. Paired with AcquireRegisteredEvent.
func (d *Directory) RegisterWriter() { d.outstandingWriters++ }

// AcquireEvent obtains the reader–writer lock covering target. granted
// runs (possibly later) once the lock is held.
func (d *Directory) AcquireEvent(target uint64, writer bool, granted sim.Cont) {
	if writer {
		d.RegisterWriter()
	}
	d.AcquireRegisteredEvent(target, writer, granted)
}

// AcquireRegisteredEvent is AcquireEvent for a writer already counted
// via RegisterWriter (readers behave identically under both entry
// points). The request rides a pooled transaction across the directory
// access latency.
func (d *Directory) AcquireRegisteredEvent(target uint64, writer bool, granted sim.Cont) {
	t := d.getTxn()
	t.target = target
	t.writer = writer
	t.granted = granted
	d.k.ScheduleEvent(d.latency, t, sim.EventArg{})
}

func (d *Directory) canGrant(e *dirEntry, writer bool) bool {
	if writer {
		// One writer at a time, and it must wait for readers to drain.
		return !e.writer && e.readers == 0 && e.queue.Len() == 0
	}
	// Readers are barred while a writer is active or waiting.
	return !e.writer && e.writerWaiting == 0
}

func (d *Directory) grant(e *dirEntry, writer bool) {
	if writer {
		e.writer = true
	} else {
		e.readers++
	}
}

// Release drops a previously acquired lock and wakes eligible waiters.
func (d *Directory) Release(target uint64, writer bool) {
	e := d.entryFor(target)
	if writer {
		if !e.writer {
			panic("pim: directory release of unheld writer lock")
		}
		e.writer = false
		d.writerDone()
	} else {
		if e.readers <= 0 {
			panic("pim: directory release of unheld reader lock")
		}
		e.readers--
	}
	d.wake(e)
	if d.ideal && e.readers == 0 && !e.writer && e.queue.Len() == 0 {
		delete(d.idealLocks, addr.BlockOf(target))
	}
}

// wake admits queued waiters FIFO: either one writer, or a maximal run
// of readers up to the next queued writer.
func (d *Directory) wake(e *dirEntry) {
	for e.queue.Len() > 0 {
		w := e.queue.Peek()
		if w.writer {
			if e.writer || e.readers > 0 {
				return
			}
			e.queue.Pop()
			e.writerWaiting--
			e.writer = true
			w.granted.Invoke()
			return
		}
		if e.writer {
			return
		}
		e.queue.Pop()
		e.readers++
		w.granted.Invoke()
	}
}

func (d *Directory) writerDone() {
	d.outstandingWriters--
	if d.outstandingWriters == 0 && len(d.fenceWaiters) > 0 {
		waiters := d.fenceWaiters
		d.fenceWaiters = nil
		for _, c := range waiters {
			c.Invoke()
		}
	}
}

// FenceEvent implements pfence (§3.2): done runs once every writer PEI
// issued so far has completed (all entries readable).
func (d *Directory) FenceEvent(done sim.Cont) {
	t := d.getTxn()
	t.fence = true
	t.granted = done
	d.k.ScheduleEvent(d.latency, t, sim.EventArg{})
}

// OutstandingWriters exposes the writer count for tests.
func (d *Directory) OutstandingWriters() int { return d.outstandingWriters }
