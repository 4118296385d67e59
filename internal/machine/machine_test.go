package machine

import (
	"context"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/pim"
)

func streamOfPEIs(m *Machine, base uint64, n int, strideBlocks int) *cpu.Queue {
	s := &cpu.Queue{}
	for i := 0; i < n; i++ {
		s.PushPEI(pim.OpInc64, base+uint64(i*strideBlocks*64), 0, 0)
	}
	return s
}

func TestMachineRunHostOnly(t *testing.T) {
	m := MustNew(config.Scaled(), pim.HostOnly)
	base := m.Store.Alloc(64*64, 64)
	res, err := m.RunContext(context.Background(), []cpu.Stream{streamOfPEIs(m, base, 32, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired != 32 || res.PEIHost != 32 || res.PEIMem != 0 {
		t.Fatalf("retired=%d host=%d mem=%d", res.Retired, res.PEIHost, res.PEIMem)
	}
	if res.Cycles <= 0 || res.IPC() <= 0 {
		t.Fatalf("cycles=%d ipc=%v", res.Cycles, res.IPC())
	}
	for i := 0; i < 32; i++ {
		if got := m.Store.ReadU64(base + uint64(i*64)); got != 1 {
			t.Fatalf("block %d value %d, want 1", i, got)
		}
	}
}

func TestMachinePIMOnlyUsesLessOffchipForIncrements(t *testing.T) {
	cfg := config.Scaled()
	run := func(mode pim.Mode) Result {
		m := MustNew(cfg, mode)
		base := m.Store.Alloc(128*64, 64)
		res, err := m.RunContext(context.Background(), []cpu.Stream{streamOfPEIs(m, base, 128, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	host := run(pim.HostOnly)
	pimOnly := run(pim.PIMOnly)
	// A streaming increment with no locality: host moves 96 B per PEI,
	// memory-side 32 B per PEI.
	if pimOnly.OffchipBytes >= host.OffchipBytes {
		t.Fatalf("PIM-Only off-chip %d >= Host-Only %d for streaming writes",
			pimOnly.OffchipBytes, host.OffchipBytes)
	}
	if pimOnly.PEIMem != 128 {
		t.Fatalf("PIM-Only executed %d in memory", pimOnly.PEIMem)
	}
}

func TestMachineCachedWorkloadFasterOnHost(t *testing.T) {
	cfg := config.Scaled()
	// Hammer 4 blocks repeatedly: everything fits in L1.
	run := func(mode pim.Mode) Result {
		m := MustNew(cfg, mode)
		base := m.Store.Alloc(4*64, 64)
		s := &cpu.Queue{}
		for i := 0; i < 400; i++ {
			s.PushPEI(pim.OpInc64, base+uint64(i%4)*64, 0, 0)
		}
		res, err := m.RunContext(context.Background(), []cpu.Stream{s})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Store.ReadU64(base); got != 100 {
			t.Fatalf("value %d, want 100", got)
		}
		return res
	}
	host := run(pim.HostOnly)
	mem := run(pim.PIMOnly)
	if host.Cycles >= mem.Cycles {
		t.Fatalf("high-locality: host %d cycles, pim %d — host should win", host.Cycles, mem.Cycles)
	}
	la := run(pim.LocalityAware)
	if la.PIMFraction() > 0.2 {
		t.Fatalf("locality-aware offloaded %.0f%% of a cache-resident workload", 100*la.PIMFraction())
	}
}

func TestMachineMultipleCores(t *testing.T) {
	m := MustNew(config.Scaled(), pim.LocalityAware)
	var streams []cpu.Stream
	bases := make([]uint64, 4)
	for c := 0; c < 4; c++ {
		bases[c] = m.Store.Alloc(32*64, 64)
		streams = append(streams, streamOfPEIs(m, bases[c], 32, 1))
	}
	res, err := m.RunContext(context.Background(), streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired != 128 {
		t.Fatalf("retired %d, want 128", res.Retired)
	}
	if len(res.PerCoreRetired) != 4 {
		t.Fatalf("per-core stats %v", res.PerCoreRetired)
	}
	for c := 0; c < 4; c++ {
		if res.PerCoreRetired[c] != 32 {
			t.Fatalf("core %d retired %d", c, res.PerCoreRetired[c])
		}
	}
}

func TestMachineSharedCounterContention(t *testing.T) {
	// All four cores increment the same word: the PIM directory must
	// serialize, and no update may be lost.
	m := MustNew(config.Scaled(), pim.LocalityAware)
	a := m.Store.Alloc(8, 8)
	var streams []cpu.Stream
	for c := 0; c < 4; c++ {
		s := &cpu.Queue{}
		for i := 0; i < 25; i++ {
			s.PushPEI(pim.OpInc64, a, 0, 0)
		}
		streams = append(streams, s)
	}
	if _, err := m.RunContext(context.Background(), streams); err != nil {
		t.Fatal(err)
	}
	if got := m.Store.ReadU64(a); got != 100 {
		t.Fatalf("shared counter = %d, want 100 (lost updates)", got)
	}
}

func TestMachineErrors(t *testing.T) {
	m := MustNew(config.Scaled(), pim.HostOnly)
	if _, err := m.RunContext(context.Background(), nil); err == nil {
		t.Fatal("expected error for empty run")
	}
	m2 := MustNew(config.Scaled(), pim.HostOnly)
	too := make([]cpu.Stream, m2.Cfg.Cores+1)
	if _, err := m2.RunContext(context.Background(), too); err == nil {
		t.Fatal("expected error for too many streams")
	}
	bad := config.Scaled()
	bad.Cores = 0
	if _, err := New(bad, pim.HostOnly); err == nil {
		t.Fatal("expected error for invalid config")
	}
}

func TestMachineEnergyPopulated(t *testing.T) {
	m := MustNew(config.Scaled(), pim.PIMOnly)
	base := m.Store.Alloc(64*64, 64)
	res, err := m.RunContext(context.Background(), []cpu.Stream{streamOfPEIs(m, base, 64, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("energy not computed")
	}
	if res.Energy.DRAM <= 0 || res.Energy.Offchip <= 0 {
		t.Fatalf("PIM run missing DRAM/offchip energy: %+v", res.Energy)
	}
	if res.Stats["pcu.mem.executed"] != 64 {
		t.Fatalf("pcu.mem.executed = %d", res.Stats["pcu.mem.executed"])
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() Result {
		m := MustNew(config.Scaled(), pim.LocalityAware)
		base := m.Store.Alloc(256*64, 64)
		res, err := m.RunContext(context.Background(), []cpu.Stream{
			streamOfPEIs(m, base, 100, 1),
			streamOfPEIs(m, base, 100, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.OffchipBytes != b.OffchipBytes || a.PEIMem != b.PEIMem {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMachineWithVirtualMemory(t *testing.T) {
	cfg := config.Scaled()
	cfg.EnableVM = true
	m := MustNew(cfg, pim.LocalityAware)
	base := m.Store.Alloc(64*64, 64)
	res, err := m.RunContext(context.Background(), []cpu.Stream{streamOfPEIs(m, base, 64, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Functional results must be unchanged under identity paging.
	for i := 0; i < 64; i++ {
		if got := m.Store.ReadU64(base + uint64(i*64)); got != 1 {
			t.Fatalf("block %d value %d under VM", i, got)
		}
	}
	// §4.4: exactly one TLB access per PEI (plus none here from loads).
	lookups := res.Stats["tlb.hits"] + res.Stats["tlb.misses"]
	if lookups != 64 {
		t.Fatalf("TLB lookups = %d, want one per PEI (64)", lookups)
	}
	if res.Stats["tlb.misses"] == 0 {
		t.Fatal("cold TLB should miss at least once")
	}
}

func TestVMSlowerThanIdentity(t *testing.T) {
	run := func(enable bool) Result {
		cfg := config.Scaled()
		cfg.EnableVM = enable
		cfg.TLBEntries = 2 // tiny TLB, forced thrashing
		cfg.TLBMissLatency = 200
		cfg.WindowSize = 1 // serialize so walk latency is on the critical path
		m := MustNew(cfg, pim.HostOnly)
		base := m.Store.Alloc(64*64*64, 64)
		// Stride one page per PEI, cycling over 4 pages: every access
		// misses a 2-entry TLB.
		s := &cpu.Queue{}
		for i := 0; i < 256; i++ {
			s.PushPEI(pim.OpInc64, base+uint64(i%4)*4096+uint64(i/4%64)*64, 0, 0)
		}
		res, err := m.RunContext(context.Background(), []cpu.Stream{s})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withVM := run(true)
	without := run(false)
	if withVM.Stats["tlb.misses"] < 200 {
		t.Fatalf("expected heavy TLB thrashing, got %d misses", withVM.Stats["tlb.misses"])
	}
	if withVM.Cycles <= without.Cycles {
		t.Fatalf("thrashing TLB (%d cycles) should be slower than no VM (%d)",
			withVM.Cycles, without.Cycles)
	}
}

func TestLatencyHistogramsPopulated(t *testing.T) {
	m := MustNew(config.Scaled(), pim.LocalityAware)
	base := m.Store.Alloc(64*64, 64)
	s := &cpu.Queue{}
	for i := 0; i < 32; i++ {
		s.PushLoad(base + uint64(i*64))
		s.PushPEI(pim.OpInc64, base+uint64(i*64), 0, 0)
	}
	res, err := m.RunContext(context.Background(), []cpu.Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if m.Hier.AccessLatency.N == 0 || m.PMU.PEILatency.N != 32 {
		t.Fatalf("histograms: access N=%d pei N=%d", m.Hier.AccessLatency.N, m.PMU.PEILatency.N)
	}
	if m.PMU.PEILatency.Mean() <= 0 {
		t.Fatal("zero PEI latency")
	}
	if res.Stats["lat.pei.mean_x100"] <= 0 {
		t.Fatal("latency stat not exported")
	}
}
