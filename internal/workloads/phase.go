package workloads

import (
	"pimsim/internal/cpu"
	"pimsim/internal/snap"
)

// phaseCtl implements Workload's phase methods for every workload.
// Streams() calls initPhases and registers each thread's roundDriver
// (and the shared barrier, if any); workloads with host-side PEI
// accumulators hook snapExtra to carry them across the boundary.
type phaseCtl struct {
	totalRounds int //peilint:allow snapcomplete workload configuration, set by initPhases when Streams builds the workload, which a restore target does before Snap decodes
	barrier     *cpu.Barrier
	drivers     []*roundDriver
	// snapExtra codes workload-specific host state (e.g. hashjoin's
	// match counter, histogram's per-thread bins).
	snapExtra func(c *snap.Coder)
}

// initPhases resets phase bookkeeping for a (re)build of the streams.
func (c *phaseCtl) initPhases(rounds int, barrier *cpu.Barrier) {
	c.totalRounds = rounds
	c.barrier = barrier
	c.drivers = nil
	c.snapExtra = nil
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

func (c *phaseCtl) Snap(sc *snap.Coder) {
	sc.Section("WKLD")
	sc.ExpectBool("workloads: barrier presence", c.barrier != nil)
	if c.barrier != nil {
		c.barrier.Snap(sc)
	}
	sc.Expect("workloads: drivers", len(c.drivers))
	for _, d := range c.drivers {
		sc.Int(&d.round)
		sc.Int(&d.pos)
		sc.Bool(&d.tailDone)
		sc.ExpectBool("workloads: driver budget presence", d.budget != nil)
		if d.budget != nil {
			sc.I64(d.budget)
		}
	}
	if c.snapExtra != nil {
		c.snapExtra(sc)
	}
}

// snapU64Grid codes per-thread accumulator arrays (histogram bins,
// radix partition counts) as extra sections.
func snapU64Grid(c *snap.Coder, grid [][]uint64) {
	c.Expect("workloads: accumulator rows", len(grid))
	for _, row := range grid {
		c.U64s(row)
	}
}
