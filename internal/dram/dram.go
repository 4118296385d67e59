// Package dram models the DRAM banks behind one vault controller:
// open-row (row-buffer) state per bank, FR-FCFS scheduling, and the
// tCL/tRCD/tRP timing of Table 2. One Controller corresponds to the
// per-vault DRAM controller on the HMC logic die.
package dram

import (
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

// Timing holds DRAM timing parameters in CPU cycles.
type Timing struct {
	TCL  sim.Cycle // column access (row already open)
	TRCD sim.Cycle // row activate
	TRP  sim.Cycle // precharge (row conflict)
	// IssueGap is the minimum spacing between commands issued by one
	// controller (the command bus serialization; 2 CPU cycles = one
	// 2 GHz memory cycle).
	IssueGap sim.Cycle
	// TREFI is the refresh interval and TRFC the refresh cycle time; all
	// banks of the controller stall for TRFC every TREFI. Zero TREFI
	// disables refresh.
	TREFI sim.Cycle
	TRFC  sim.Cycle
}

// request is the controller's internal queued form, recycled through a
// free list so steady-state traffic allocates nothing.
type request struct {
	bank    int
	row     uint64
	write   bool
	done    sim.Cont
	arrived sim.Cycle
}

type bank struct {
	open    bool
	openRow uint64
	readyAt sim.Cycle
}

// Controller is a per-vault FR-FCFS DRAM controller.
type Controller struct {
	k     *sim.Kernel
	t     Timing
	banks []bank
	queue []*request
	free  []*request //peilint:allow snapcomplete pool of recycled queue records (see getRequest/putRequest): capacity, not state

	// Per-event counters, resolved once at construction (the prefix is
	// baked into the handle names, e.g. "dram.row_hit").
	cRowHit, cRowMiss, cRowConflict stats.Handle
	cReads, cWrites, cRefreshes     stats.Handle

	nextIssue   sim.Cycle
	pumpAt      sim.Cycle // earliest already-scheduled pump; -1 if none
	nextRefresh sim.Cycle
}

// NewController creates a controller with the given bank count. Counter
// names are prefixed (e.g. "dram.") in the shared registry.
func NewController(k *sim.Kernel, banks int, t Timing, reg *stats.Registry, prefix string) *Controller {
	return &Controller{
		k:            k,
		t:            t,
		banks:        make([]bank, banks),
		cRowHit:      reg.Counter(prefix + "row_hit"),
		cRowMiss:     reg.Counter(prefix + "row_miss"),
		cRowConflict: reg.Counter(prefix + "row_conflict"),
		cReads:       reg.Counter(prefix + "reads"),
		cWrites:      reg.Counter(prefix + "writes"),
		cRefreshes:   reg.Counter(prefix + "refreshes"),
		pumpAt:       -1,
	}
}

// EnqueueEvent adds a block access to the queue, to be scheduled
// FR-FCFS; done (which may be the zero Cont) is invoked when the access
// completes (data available at the vault for reads; write restored for
// writes). The queued record comes from the controller's free list, so
// steady-state enqueueing allocates nothing.
func (c *Controller) EnqueueEvent(bank int, row uint64, write bool, done sim.Cont) {
	if bank < 0 || bank >= len(c.banks) {
		panic("dram: bank out of range")
	}
	r := c.getRequest()
	r.bank = bank
	r.row = row
	r.write = write
	r.done = done
	r.arrived = c.k.Now()
	c.queue = append(c.queue, r)
	c.pump()
}

// getRequest takes a recycled queue record (or allocates the pool's
// next one). The controller owns the record for the request's lifetime;
// pump releases it when the request issues.
func (c *Controller) getRequest() *request {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		r.bank = 0
		return r
	}
	return &request{}
}

// putRequest recycles an issued record. bank is parked at -1 so a
// double release is caught immediately rather than corrupting the pool.
func (c *Controller) putRequest(r *request) {
	if r.bank < 0 {
		panic("dram: request double-released")
	}
	*r = request{bank: -1}
	c.free = append(c.free, r)
}

// latencyFor returns the service latency of r on its bank and the
// counter recording its kind: row hit, row miss (closed row), or
// conflict.
func (c *Controller) latencyFor(r *request) (lat sim.Cycle, kind stats.Handle) {
	b := &c.banks[r.bank]
	switch {
	case b.open && b.openRow == r.row:
		return c.t.TCL, c.cRowHit
	case !b.open:
		return c.t.TRCD + c.t.TCL, c.cRowMiss
	default:
		return c.t.TRP + c.t.TRCD + c.t.TCL, c.cRowConflict
	}
}

// applyRefresh lazily applies any refresh windows that have elapsed:
// every TREFI, all banks stall for TRFC with their rows closed. Applied
// on demand so an idle controller costs no events.
func (c *Controller) applyRefresh(now sim.Cycle) {
	t := c.t
	if t.TREFI <= 0 {
		return
	}
	for c.nextRefresh <= now {
		end := c.nextRefresh + t.TRFC
		for i := range c.banks {
			b := &c.banks[i]
			b.open = false
			if b.readyAt < end {
				b.readyAt = end
			}
		}
		c.cRefreshes.Inc()
		c.nextRefresh += t.TREFI
		if now-c.nextRefresh > 16*t.TREFI {
			// Long idle gap: rows are already closed; skip ahead.
			c.nextRefresh += (now - c.nextRefresh) / t.TREFI * t.TREFI
		}
	}
}

// pump issues as many requests as the FR-FCFS policy allows right now,
// then schedules itself for the next time anything could issue.
func (c *Controller) pump() {
	now := c.k.Now()
	c.applyRefresh(now)
	for {
		idx := c.pick(now)
		if idx < 0 {
			break
		}
		r := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		lat, kind := c.latencyFor(r)
		b := &c.banks[r.bank]
		b.open = true
		b.openRow = r.row
		b.readyAt = now + lat
		c.nextIssue = now + c.t.IssueGap
		kind.Inc()
		if r.write {
			c.cWrites.Inc()
		} else {
			c.cReads.Inc()
		}
		done := r.done
		c.putRequest(r)
		if done.H != nil {
			c.k.ScheduleEvent(lat, done.H, done.Arg)
		}
		now = c.k.Now() // unchanged; loop continues for other ready banks
		if c.nextIssue > now {
			break
		}
	}
	c.scheduleNextPump()
}

// pick selects the FR-FCFS winner issuable at cycle now: the oldest
// row-hit request whose bank is ready, else the oldest ready request.
func (c *Controller) pick(now sim.Cycle) int {
	if c.nextIssue > now {
		return -1
	}
	best := -1
	bestHit := false
	for i, r := range c.queue {
		b := &c.banks[r.bank]
		if b.readyAt > now {
			continue
		}
		hit := b.open && b.openRow == r.row
		switch {
		case best < 0:
			best, bestHit = i, hit
		case hit && !bestHit:
			best, bestHit = i, hit
		}
		// Queue order is arrival order, so the first candidate of each
		// class is the oldest.
		if bestHit {
			break
		}
	}
	return best
}

func (c *Controller) scheduleNextPump() {
	if len(c.queue) == 0 {
		return
	}
	now := c.k.Now()
	var earliest sim.Cycle = -1
	for _, r := range c.queue {
		t := c.banks[r.bank].readyAt
		if t < c.nextIssue {
			t = c.nextIssue
		}
		if t <= now {
			t = now + 1
		}
		if earliest < 0 || t < earliest {
			earliest = t
		}
	}
	if earliest < 0 {
		return
	}
	if c.pumpAt >= 0 && c.pumpAt <= earliest {
		return // an earlier-or-equal pump is already queued
	}
	c.pumpAt = earliest
	c.k.AtEvent(earliest, c, sim.EventArg{N: earliest})
}

// OnEvent is the controller's self-scheduled pump wakeup (see
// scheduleNextPump); the controller is its own handler so the wakeup
// allocates nothing. a.N is the cycle the wakeup was scheduled for. A
// wakeup that an earlier-timed pump has superseded is stale: it would
// issue nothing (pumpAt is the earliest issue time, recomputed after
// every enqueue and issue) and would only schedule a duplicate of the
// live wakeup, so it returns at once. Of two wakeups for pumpAt itself,
// the first to dispatch acts.
func (c *Controller) OnEvent(a sim.EventArg) {
	if a.N != c.pumpAt {
		return
	}
	c.pumpAt = -1
	c.pump()
}
