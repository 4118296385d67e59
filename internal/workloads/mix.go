package workloads

import (
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/snap"
)

// Mix runs several workloads side by side on one machine, as one
// Workload: each part's streams take the next cores in order, so a part
// built with Threads = k occupies k consecutive cores (Figure 9's
// multiprogrammed pairs give each application half the cores). A part
// with fewer rounds than the others simply finishes early.
type Mix []Workload

// Streams concatenates the parts' streams in order.
func (x Mix) Streams(m *machine.Machine) []cpu.Stream {
	var streams []cpu.Stream
	for _, w := range x {
		streams = append(streams, w.Streams(m)...)
	}
	return streams
}

// Verify verifies every part and reports the first failure.
func (x Mix) Verify(m *machine.Machine) error {
	for _, w := range x {
		if err := w.Verify(m); err != nil {
			return err
		}
	}
	return nil
}

// Rounds is the most rounds any part runs.
func (x Mix) Rounds() int {
	n := 0
	for _, w := range x {
		n = max(n, w.Rounds())
	}
	return n
}

// SetRoundLimit caps every part at the same round.
func (x Mix) SetRoundLimit(limit int) {
	for _, w := range x {
		w.SetRoundLimit(limit)
	}
}

// Snap codes the parts' generator state in order.
func (x Mix) Snap(c *snap.Coder) {
	for _, w := range x {
		w.Snap(c)
	}
}
