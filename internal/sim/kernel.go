// Package sim provides the discrete-event simulation kernel used by every
// timed component in the simulator: a cycle-granular event wheel, clock
// domain helpers, and bandwidth-limited links.
//
// The kernel is deliberately single-threaded. All hardware concurrency is
// expressed as events on one totally-ordered queue, which makes runs
// deterministic: the same configuration and seed always produce the same
// cycle counts. Events scheduled for the same cycle run in FIFO order of
// scheduling.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Cycle is a point in simulated time, measured in CPU cycles of the base
// clock domain (4 GHz in the baseline configuration).
type Cycle = int64

// EventArg is the payload handed to a Handler when its event fires: a
// small scalar such as a state-machine stage or a cycle. It holds no
// pointer. A handler that needs per-event state is that state — a
// pooled transaction implementing Handler — so the queue's records stay
// small and carry one reference each.
type EventArg struct {
	N int64
}

// Handler receives event dispatch. Hot-path components implement it on a
// pointer receiver (pooled transaction objects, or a component acting as
// its own handler) so scheduling an event allocates nothing.
type Handler interface {
	OnEvent(arg EventArg)
}

// Cont is a suspended continuation: a handler plus the argument to
// deliver to it. Components pass Cont values through their APIs instead
// of `func()` callbacks so completion notification stays allocation-free.
// The zero Cont is valid and means "no one to notify".
type Cont struct {
	H   Handler
	Arg EventArg
}

// Invoke delivers the continuation now (synchronously). A zero Cont is a
// no-op.
func (c Cont) Invoke() {
	if c.H != nil {
		c.H.OnEvent(c.Arg)
	}
}

// funcEvent adapts a bare closure to the Handler interface. A func value
// is pointer-shaped, so the interface conversion does not allocate; the
// closure itself may, which is why hot paths use typed handlers instead.
type funcEvent func()

func (f funcEvent) OnEvent(EventArg) { f() }

// Call wraps a closure as a Cont for cold paths and compatibility
// shims. A nil fn yields the zero (no-op) Cont.
func Call(fn func()) Cont {
	if fn == nil {
		return Cont{}
	}
	return Cont{H: funcEvent(fn)}
}

// The kernel is a calendar queue: a ring of per-cycle FIFO buckets
// covering the next ringWindow cycles, plus a min-heap overflow for
// events farther out. Nearly all simulator events (cache pipelines, link
// serialization, DRAM timing) land within ~100 cycles of now, so the
// steady state is bucket appends and pops — no interface boxing, no
// per-event allocation, O(1) amortized ordering.
//
// The ring is deliberately small. Its footprint is what the dispatch
// loop walks continuously: at 1<<12 cycles (the original size) one ring
// was ≈230 KiB, and shrinking it to 1<<7 sped the simulator up ~25%
// (DESIGN.md §8). 1<<7 covers the off-chip link latency and full DRAM
// bank timing chains; rarer far-out events (refresh, phase boundaries)
// take the heap path, whose cost is dwarfed by the locality win.
const (
	ringWindow = 1 << 7 // cycles of near future covered by the ring
	ringMask   = ringWindow - 1
	occWords   = ringWindow / 64
)

// event is the uniform record stored in ring buckets and the far heap:
// a handler and its argument, 24 bytes. Closure-based scheduling goes
// through the funcEvent adapter, so the queue itself never stores bare
// func values.
type event struct {
	h   Handler
	arg EventArg
}

// bucket holds the events of one in-window cycle in two FIFO lanes:
// the early lane carries off-chip link deliveries (AtEventEarly) and
// dispatches before the normal lane. The split makes the relative order
// of a link arrival and a same-cycle local event a fixed rule —
// arrivals first — instead of an artifact of queue insertion time. The
// golden tables were generated under this rule.
type bucket struct {
	early []event
	ehead int
	evs   []event
	head  int
}

// farEvent is an event beyond the ring's horizon. seq breaks ties so
// same-cycle far events migrate into their bucket in scheduling order;
// early marks which lane the event belongs to.
type farEvent struct {
	when  Cycle
	seq   uint64
	early bool
	ev    event
}

// Kernel is the discrete-event scheduler. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now Cycle

	// base is the cycle mapped to the ring's current origin; the ring
	// holds exactly the pending events with base <= when < base+ringWindow
	// (invariant: base <= now, so nothing schedulable lands behind it).
	base      Cycle
	ring      [ringWindow]bucket //peilint:allow snapcomplete quiescence-empty: a snapshot with pending events fails, so there is nothing to serialize
	occ       [occWords]uint64   //peilint:allow snapcomplete occupancy bitmap (one bit per bucket) of the quiescence-empty ring
	ringCount int

	far []farEvent // min-heap on (when, seq)
	seq uint64

	// Executed counts events dispatched since construction; useful for
	// rough simulation-effort reporting.
	Executed uint64
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() Cycle { return k.now }

// Schedule runs fn delay cycles from now. A delay of 0 runs fn later in
// the current cycle, after all previously scheduled current-cycle events.
// Closure variant for cold paths; hot paths use ScheduleEvent.
func (k *Kernel) Schedule(delay Cycle, fn func()) {
	k.ScheduleEvent(delay, funcEvent(fn), EventArg{})
}

// At runs fn at the given absolute cycle, which must not be in the past.
// Closure variant for cold paths; hot paths use AtEvent.
func (k *Kernel) At(cycle Cycle, fn func()) {
	k.AtEvent(cycle, funcEvent(fn), EventArg{})
}

// ScheduleEvent delivers arg to h delay cycles from now. A delay of 0
// dispatches later in the current cycle, after all previously scheduled
// current-cycle events. Scheduling itself never allocates in steady
// state (bucket and heap storage is recycled).
func (k *Kernel) ScheduleEvent(delay Cycle, h Handler, arg EventArg) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	k.AtEvent(k.now+delay, h, arg)
}

// AtEvent delivers arg to h at the given absolute cycle, which must not
// be in the past.
func (k *Kernel) AtEvent(cycle Cycle, h Handler, arg EventArg) {
	if cycle < k.now {
		panic(fmt.Sprintf("sim: schedule in the past (now %d, at %d)", k.now, cycle))
	}
	if cycle < k.base+ringWindow {
		slot := int(cycle & ringMask)
		k.ring[slot].evs = append(k.ring[slot].evs, event{h: h, arg: arg})
		k.occ[slot>>6] |= 1 << uint(slot&63)
		k.ringCount++
		return
	}
	k.farPush(farEvent{when: cycle, seq: k.seq, ev: event{h: h, arg: arg}})
	k.seq++
}

// AtEventEarly delivers arg to h at the given absolute cycle in the
// bucket's early lane: it dispatches before every normal-lane event of
// that cycle, regardless of when either was inserted. It exists for
// off-chip link deliveries (see Link.SendEventEarly), whose
// arrivals-before-locals rule the golden tables depend on. The cycle
// must be strictly in the future: link serialization guarantees that,
// and an early insert into the currently dispatching bucket would be
// unreachable.
func (k *Kernel) AtEventEarly(cycle Cycle, h Handler, arg EventArg) {
	if cycle <= k.now && !(cycle == 0 && k.now == 0 && k.Executed == 0) {
		panic(fmt.Sprintf("sim: early event not in the future (now %d, at %d)", k.now, cycle))
	}
	if cycle < k.base+ringWindow {
		slot := int(cycle & ringMask)
		k.ring[slot].early = append(k.ring[slot].early, event{h: h, arg: arg})
		k.occ[slot>>6] |= 1 << uint(slot&63)
		k.ringCount++
		return
	}
	k.farPush(farEvent{when: cycle, seq: k.seq, early: true, ev: event{h: h, arg: arg}})
	k.seq++
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.ringCount + len(k.far) }

// nextRingCycle returns the earliest cycle with a pending ring event.
// Precondition: ringCount > 0. The occupancy bitmap makes the scan
// O(ringWindow/64) worst case, one word test per 64 empty buckets.
func (k *Kernel) nextRingCycle() Cycle {
	start := int(k.base & ringMask)
	w := start >> 6
	word := k.occ[w] &^ (1<<uint(start&63) - 1)
	for i := 0; i <= occWords; i++ {
		if word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			d := slot - start
			if d < 0 {
				d += ringWindow
			}
			return k.base + Cycle(d)
		}
		w = (w + 1) & (occWords - 1)
		word = k.occ[w]
	}
	panic("sim: ring events pending but no occupied bucket")
}

// migrate moves far events that now fall inside the ring's horizon into
// their buckets. Heap order is (when, seq), so same-cycle events land in
// scheduling order; migration happens the moment the window first covers
// a cycle, before any direct append to that cycle is possible, which
// preserves global same-cycle FIFO.
func (k *Kernel) migrate() {
	horizon := k.base + ringWindow
	for len(k.far) > 0 && k.far[0].when < horizon {
		e := k.farPop()
		slot := int(e.when & ringMask)
		if e.early {
			k.ring[slot].early = append(k.ring[slot].early, e.ev)
		} else {
			k.ring[slot].evs = append(k.ring[slot].evs, e.ev)
		}
		k.occ[slot>>6] |= 1 << uint(slot&63)
		k.ringCount++
	}
}

// RunN dispatches up to n events in time order and reports how many it
// dispatched; fewer than n means the queue is empty. A budget may stop
// it partway through a cycle's bucket; the next call resumes there.
func (k *Kernel) RunN(n int) int {
	return k.run(math.MaxInt64, n)
}

// Run dispatches events until the queue is empty.
func (k *Kernel) Run() {
	k.run(math.MaxInt64, math.MaxInt)
}

// RunUntil dispatches events with cycle <= limit, then sets time to limit
// if the simulation got there. Events beyond limit remain queued.
func (k *Kernel) RunUntil(limit Cycle) {
	k.run(limit, math.MaxInt)
	if k.now < limit {
		k.now = limit
	}
}

// run is the one dispatch loop behind RunN, Run and RunUntil. It works
// a cycle at a time: it finds the next occupied cycle (jumping the ring
// to the far heap's head across an idle gap), moves the ring origin
// there and migrates newly covered far events once, and then drains
// that cycle's bucket. It stops at the first cycle beyond limit or once
// n events have run.
func (k *Kernel) run(limit Cycle, n int) int {
	ran := 0
	for ran < n {
		if k.ringCount == 0 {
			if len(k.far) == 0 || k.far[0].when > limit {
				break
			}
			k.base = k.far[0].when
			k.migrate()
		}
		c := k.nextRingCycle()
		if c > limit {
			break
		}
		if c != k.base {
			k.base = c
			k.migrate()
		}
		ran += k.drain(c, n-ran)
	}
	return ran
}

// drain runs up to budget events of cycle c's bucket, advancing time to
// c: the early lane, then the normal lane, including delay-0 events that
// handlers append to the normal lane meanwhile (an early insert always
// lands in a later cycle). Precondition: c is the earliest pending
// cycle and the ring origin, so nothing else can precede these events.
// Once both lanes are spent the bucket is reset for reuse. Run records
// are not zeroed: a later cycle that maps to the bucket overwrites
// them, and until then a stale record can keep only one of this
// kernel's own handlers reachable. Zeroing cost a GC write barrier per
// pointer word on every event while a collection was marking.
func (k *Kernel) drain(c Cycle, budget int) int {
	k.now = c
	slot := int(c & ringMask)
	b := &k.ring[slot]
	ran := 0
	for b.ehead < len(b.early) && ran < budget {
		ev := b.early[b.ehead]
		b.ehead++
		k.ringCount--
		k.Executed++
		ran++
		ev.h.OnEvent(ev.arg)
	}
	for b.head < len(b.evs) && ran < budget {
		ev := b.evs[b.head]
		b.head++
		k.ringCount--
		k.Executed++
		ran++
		ev.h.OnEvent(ev.arg)
	}
	if b.ehead == len(b.early) && b.head == len(b.evs) {
		b.early = b.early[:0]
		b.ehead = 0
		b.evs = b.evs[:0]
		b.head = 0
		k.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	return ran
}

// farPush and farPop maintain the overflow min-heap without the
// interface boxing of container/heap.
func (k *Kernel) farPush(e farEvent) {
	k.far = append(k.far, e)
	i := len(k.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(k.far[i], k.far[p]) {
			break
		}
		k.far[i], k.far[p] = k.far[p], k.far[i]
		i = p
	}
}

func (k *Kernel) farPop() farEvent {
	h := k.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = farEvent{} // drop the handler reference
	k.far = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && farLess(h[l], h[small]) {
			small = l
		}
		if r < n && farLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

func farLess(a, b farEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
