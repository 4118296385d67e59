package machine

import (
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/pim"
)

// TestCorePEISteadyStateAllocs pins the core-driven PEI path: a core
// issues each PEI from its stream, the PMU (through the VM layer when
// enabled) runs it, and it retires through the core's PEI-done stage.
// The root package's PEI pins call the PMU directly and never reach
// that stage.
func TestCorePEISteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		mode pim.Mode
		vm   bool
	}{
		{"host", pim.HostOnly, false},
		{"memory", pim.PIMOnly, false},
		{"vm", pim.PIMOnly, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Scaled()
			cfg.EnableVM = tc.vm
			m := MustNew(cfg, tc.mode)
			const blocks = 64
			const batch = 32
			base := m.Store.Alloc(blocks*64, 64)
			retired := 0
			done := func() { retired++ }
			peis := make([]*pim.PEI, batch)
			for i := range peis {
				peis[i] = &pim.PEI{}
			}
			// A drained Queue keeps its buffer, so refilling it each
			// round allocates nothing once the buffer has grown.
			q := &cpu.Queue{}
			core := m.Cores[0]
			round := func() {
				for i, p := range peis {
					*p = pim.PEI{Op: pim.OpInc64, Target: base + uint64(i%blocks)*64, Done: done}
					q.PushPEI(p)
				}
				core.Run(q)
				m.K.Run()
			}
			// Warm the pools and the kernel's calendar ring, as the root
			// package's PEI pins do.
			const warm = 4096
			for i := 0; i < warm; i++ {
				round()
			}
			if retired != warm*batch || !core.Done() {
				t.Fatalf("warmup retired %d of %d PEIs (core done: %v)", retired, warm*batch, core.Done())
			}
			if allocs := testing.AllocsPerRun(200, round) / batch; allocs > 0.05 {
				t.Fatalf("core-driven PEI allocates %.3f objects/op in steady state, want ~0", allocs)
			}
		})
	}
}
