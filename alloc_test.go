package pimsim_test

import (
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/sim"
)

// The steady-state allocation pins: after the handler/transaction-pool
// rework of the event path, simulating a PEI end to end must stay
// (nearly) allocation-free once the pools and ring buckets are warm.
// These tests are the regression guard for that property — a stray
// closure or per-event buffer on the hot path shows up here long before
// it shows up in a profile.

// measurePEIAllocs issues rounds of PEIs against a fixed working set and
// reports the average heap allocations per PEI in steady state.
func measurePEIAllocs(t *testing.T, mode pim.Mode) float64 {
	t.Helper()
	m := machine.MustNew(config.Scaled(), mode)
	const blocks = 64
	const batch = 32
	base := m.Store.Alloc(blocks*64, 64)
	peis := make([]*pim.PEI, batch)
	for i := range peis {
		peis[i] = &pim.PEI{}
	}
	round := func() {
		for i, p := range peis {
			*p = pim.PEI{Op: pim.OpInc64, Target: base + uint64(i%blocks)*64}
			m.PMU.IssueEvent(0, p, sim.Cont{})
		}
		m.K.Run()
	}
	// Warm every pool, ring bucket, and map bucket with the same access
	// pattern the measurement uses. The kernel's calendar ring has 1<<7
	// per-cycle buckets whose slices grow lazily, so the warmup must walk
	// the ring many times before the steady state is truly
	// allocation-free.
	for i := 0; i < 4096; i++ {
		round()
	}
	return testing.AllocsPerRun(200, round) / batch
}

// TestPEIHostSideSteadyStateAllocs pins the host-side PEI path (§4.5
// Figure 4): PMU issue, directory, host PCU, cache hierarchy.
func TestPEIHostSideSteadyStateAllocs(t *testing.T) {
	allocs := measurePEIAllocs(t, pim.HostOnly)
	if allocs > 0.05 {
		t.Fatalf("host-side PEI allocates %.3f objects/op in steady state, want ~0", allocs)
	}
}

// TestPEIMemorySideSteadyStateAllocs pins the memory-side PEI path (§4.5
// Figure 5): coherence cleanup, chain, vault PCU, DRAM.
func TestPEIMemorySideSteadyStateAllocs(t *testing.T) {
	allocs := measurePEIAllocs(t, pim.PIMOnly)
	if allocs > 0.05 {
		t.Fatalf("memory-side PEI allocates %.3f objects/op in steady state, want ~0", allocs)
	}
}

// TestPooledTxnSequentialReuse drives two deliberately different PEIs
// through the memory-side path back to back. The second reuses the
// transaction objects the first released (PMU, chain, vault, DRAM
// pools); stale state — a leftover writer flag or output size — would
// corrupt the probe's result.
func TestPooledTxnSequentialReuse(t *testing.T) {
	m := machine.MustNew(config.Scaled(), pim.PIMOnly)
	base := m.Store.Alloc(128, 64)

	// First life: a writer PEI with no input or output operand.
	done1 := false
	m.PMU.IssueEvent(0, &pim.PEI{Op: pim.OpInc64, Target: base}, sim.Call(func() { done1 = true }))
	m.K.Run()
	if !done1 {
		t.Fatal("first PEI never retired")
	}
	if got := m.Store.ReadU64(base); got != 1 {
		t.Fatalf("inc64 result %d, want 1", got)
	}

	// Second life: a reader PEI with both operands, at a different block.
	key := uint64(0x1234)
	m.Store.WriteU64(base+64+pim.HashBucketKeyOff, key)
	var out []byte
	p := &pim.PEI{Op: pim.OpHashProbe, Target: base + 64}
	p.SetInputWord(key)
	m.PMU.IssueEvent(0, p, sim.Call(func() { out = p.Output }))
	m.K.Run()
	if len(out) != 9 {
		t.Fatalf("hashprobe output %d bytes, want 9", len(out))
	}
	if out[0] != 1 {
		t.Fatal("hashprobe missed a key that is present")
	}
	if got := m.Store.ReadU64(base); got != 1 {
		t.Fatalf("reader PEI corrupted the first target: %d", got)
	}
}
