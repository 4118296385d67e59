package machine

import (
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/pim"
)

// countSink counts retired PEIs.
type countSink struct{ retired int }

func (s *countSink) PEIDone(*pim.PEI) { s.retired++ }

// TestCorePEISteadyStateAllocs pins the core-driven PEI path for every
// Table 1 op kind: a core issues each PEI from its Queue, filling a
// record from its free list, the PMU (through the VM layer when
// enabled) runs it, and it retires through the core's PEI-done stage
// into the Queue's Sink. The root package's PEI pins call the PMU
// directly and never reach that stage.
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
			const batch = 35 // five PEIs of each of the seven kinds
			base := m.Store.Alloc(blocks*64, 64)
			sink := &countSink{}
			// A drained Queue keeps its buffer, so refilling it each
			// round allocates nothing once the buffer has grown. The
			// vector ops (euclid, dot) take their operand from Vectors.
			q := &cpu.Queue{Sink: sink, Vectors: [][]byte{make([]byte, 64), make([]byte, 32)}}
			core := m.Cores[0]
			round := func() {
				for i := 0; i < batch; i++ {
					op := pim.OpKind(i % 7)
					var n uint64
					switch op {
					case pim.OpEuclideanDist:
						n = 0
					case pim.OpDotProduct:
						n = 1
					default:
						n = uint64(i)
					}
					q.PushPEI(op, base+uint64(i%blocks)*64, n, uint32(i))
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
			if sink.retired != warm*batch || !core.Done() {
				t.Fatalf("warmup retired %d of %d PEIs (core done: %v)", sink.retired, warm*batch, core.Done())
			}
			for op := range pim.Ops {
				if got := m.Reg.Get("pei.op." + pim.Ops[op].Name); got != warm*batch/7 {
					t.Fatalf("%s: %d PEIs issued, want %d", pim.Ops[op].Name, got, warm*batch/7)
				}
			}
			if allocs := testing.AllocsPerRun(200, round) / batch; allocs > 0.05 {
				t.Fatalf("core-driven PEI allocates %.3f objects/op in steady state, want ~0", allocs)
			}
		})
	}
}
