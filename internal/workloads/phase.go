package workloads

import (
	"fmt"

	"pimsim/internal/cpu"
	"pimsim/internal/snap"
)

// phaseCtl implements Workload's phase methods for every workload.
// Streams() calls initPhases and registers each thread's roundDriver
// (and the shared barrier, if any); workloads with host-side PEI
// accumulators hook snapExtra/restoreExtra to carry them across the
// boundary.
type phaseCtl struct {
	totalRounds int //peilint:allow snapcomplete workload configuration, re-established by initPhases when the streams are rebuilt before any restore
	barrier     *cpu.Barrier
	drivers     []*roundDriver
	// snapExtra/restoreExtra serialize workload-specific host state
	// (e.g. hashjoin's match counter, histogram's per-thread bins).
	snapExtra    func(w *snap.Writer) //peilint:allow snapcomplete code hook reinstalled by Streams; the state it serializes lives in the workload
	restoreExtra func(r *snap.Reader) //peilint:allow snapcomplete code hook reinstalled by Streams; the state it loads lives in the workload
}

// initPhases resets phase bookkeeping for a (re)build of the streams.
func (c *phaseCtl) initPhases(rounds int, barrier *cpu.Barrier) {
	c.totalRounds = rounds
	c.barrier = barrier
	c.drivers = nil
	c.snapExtra = nil
	c.restoreExtra = nil
}

// addDriver registers a thread's driver and returns it (so call sites
// can register inline while building streams).
func (c *phaseCtl) addDriver(d *roundDriver) *roundDriver {
	c.drivers = append(c.drivers, d)
	return d
}

func (c *phaseCtl) Rounds() int { return c.totalRounds }

func (c *phaseCtl) SetRoundLimit(limit int) {
	for _, d := range c.drivers {
		d.limit = limit
	}
}

func (c *phaseCtl) SnapshotTo(w *snap.Writer) {
	w.Section("WKLD")
	w.Bool(c.barrier != nil)
	if c.barrier != nil {
		c.barrier.SnapshotTo(w)
	}
	w.Int(len(c.drivers))
	for _, d := range c.drivers {
		w.Int(d.round)
		w.Int(d.pos)
		w.Bool(d.tailDone)
		w.Bool(d.budget != nil)
		if d.budget != nil {
			w.I64(*d.budget)
		}
	}
	if c.snapExtra != nil {
		c.snapExtra(w)
	}
}

func (c *phaseCtl) RestoreFrom(r *snap.Reader) {
	r.Section("WKLD")
	hasBarrier := r.Bool()
	if r.Err() != nil {
		return
	}
	if hasBarrier != (c.barrier != nil) {
		r.Fail(fmt.Errorf("workloads: snapshot barrier presence %v, workload has %v", hasBarrier, c.barrier != nil))
		return
	}
	if c.barrier != nil {
		c.barrier.RestoreFrom(r)
	}
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(c.drivers) {
		r.Fail(fmt.Errorf("workloads: snapshot has %d drivers, workload has %d", n, len(c.drivers)))
		return
	}
	for _, d := range c.drivers {
		d.round = r.Int()
		d.pos = r.Int()
		d.tailDone = r.Bool()
		hasBudget := r.Bool()
		if r.Err() != nil {
			return
		}
		if hasBudget != (d.budget != nil) {
			r.Fail(fmt.Errorf("workloads: snapshot budget presence %v, driver has %v", hasBudget, d.budget != nil))
			return
		}
		if hasBudget {
			*d.budget = r.I64()
		}
	}
	if c.restoreExtra != nil {
		c.restoreExtra(r)
	}
}

// snapU64Grid / restoreU64Grid serialize per-thread accumulator arrays
// (histogram bins, radix partition counts) as extra sections.
func snapU64Grid(w *snap.Writer, grid [][]uint64) {
	w.Int(len(grid))
	for _, row := range grid {
		w.U64s(row)
	}
}

func restoreU64Grid(r *snap.Reader, grid [][]uint64) {
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(grid) {
		r.Fail(fmt.Errorf("workloads: snapshot has %d accumulator rows, workload has %d", n, len(grid)))
		return
	}
	for t := range grid {
		row := r.U64s()
		if r.Err() != nil {
			return
		}
		if len(row) != len(grid[t]) {
			r.Fail(fmt.Errorf("workloads: accumulator row %d has %d entries, snapshot has %d", t, len(grid[t]), len(row)))
			return
		}
		copy(grid[t], row)
	}
}
