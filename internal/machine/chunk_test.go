package machine_test

import (
	"reflect"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

// TestDriveChunkingInvariant drives one host-side and one memory-side
// cell three ways — Run to empty, and RunN loops with budgets of 1 and
// 7 events that stop partway through cycles — and requires the same
// Result (cycles and every stat) and the same dispatched-event count.
// Drive's cancellation chunks are RunN calls, so they cannot move a
// table either.
func TestDriveChunkingInvariant(t *testing.T) {
	cells := []struct {
		workload string
		size     workloads.Size
		mode     pim.Mode
	}{
		{"hj", workloads.Small, pim.HostOnly},
		{"pr", workloads.Large, pim.PIMOnly},
	}
	drivers := []struct {
		name  string
		drive func(m *machine.Machine)
	}{
		{"Run", func(m *machine.Machine) { m.K.Run() }},
		{"RunN(1)", func(m *machine.Machine) {
			for m.K.RunN(1) == 1 {
			}
		}},
		{"RunN(7)", func(m *machine.Machine) {
			for m.K.RunN(7) == 7 {
			}
		}},
	}
	for _, c := range cells {
		var want machine.Result
		var wantEvents uint64
		for i, d := range drivers {
			cfg := config.Scaled()
			w, err := workloads.New(c.workload, workloads.Params{
				Threads: cfg.Cores, Size: c.size, Scale: 1024, Seed: 1, OpBudget: 2000,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := machine.MustNew(cfg, c.mode)
			streams := w.Streams(m)
			if err := m.Start(streams); err != nil {
				t.Fatal(err)
			}
			d.drive(m)
			if err := m.CheckDone(streams); err != nil {
				t.Fatalf("%s/%s: %v", c.workload, d.name, err)
			}
			res := m.Finish()
			if i == 0 {
				want, wantEvents = res, m.K.Executed
				if res.PEIs == 0 {
					t.Fatalf("%s: no PEIs ran", c.workload)
				}
				t.Logf("%s/%s: %d events, %d cycles, %d PEIs (%d memory-side)",
					c.workload, c.mode, wantEvents, res.Cycles, res.PEIs, res.PEIMem)
				continue
			}
			if m.K.Executed != wantEvents || !reflect.DeepEqual(res, want) {
				t.Fatalf("%s driven by %s: %d events over %d cycles, Result differs from Run's %d events over %d cycles",
					c.workload, d.name, m.K.Executed, res.Cycles, wantEvents, want.Cycles)
			}
		}
	}
}
