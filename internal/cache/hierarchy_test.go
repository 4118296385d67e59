package cache

import (
	"math/rand"
	"testing"

	"pimsim/internal/addr"
	"pimsim/internal/config"
	"pimsim/internal/dram"
	"pimsim/internal/hmc"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

func newTestHierarchy(t testing.TB) (*sim.Kernel, *Hierarchy, *stats.Registry) {
	t.Helper()
	cfg := config.Scaled()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	reg := stats.NewRegistry()
	chain := hmc.NewChain(k, hmc.Config{
		Mapping:           cfg.Mapping(),
		Timing:            dram.Timing{TCL: cfg.TCL, TRCD: cfg.TRCD, TRP: cfg.TRP, IssueGap: 2},
		LinkBytesPerCycle: cfg.LinkBytesPerCycle,
		LinkLatency:       cfg.LinkLatency,
		HopLatency:        cfg.HopLatency,
		TSVBytesPerCycle:  cfg.TSVBytesPerCycle,
		TSVLatency:        cfg.TSVLatency,
		PacketHeaderBytes: cfg.PacketHeaderBytes,
	}, reg)
	return k, NewHierarchy(k, cfg, chain, reg), reg
}

func TestColdMissFillsAllLevels(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	var first sim.Cycle = -1
	h.AccessEvent(0, 0x1000, false, sim.Call(func() { first = k.Now() }))
	k.Run()
	if first < 0 {
		t.Fatal("access never completed")
	}
	if reg.Get("l1.misses") != 1 || reg.Get("l3.misses") != 1 {
		t.Fatalf("miss counters: l1=%d l3=%d", reg.Get("l1.misses"), reg.Get("l3.misses"))
	}
	blk := addr.BlockOf(0x1000)
	if h.L1(0).Peek(blk) == nil || h.L2(0).Peek(blk) == nil {
		t.Fatal("private caches not filled")
	}
	if !h.CachedAnywhere(0x1000) {
		t.Fatal("block not cached after fill")
	}
	// Second access hits L1 and is much faster.
	var second sim.Cycle
	start := k.Now()
	h.AccessEvent(0, 0x1000, false, sim.Call(func() { second = k.Now() - start }))
	k.Run()
	if second != 4 { // L1 latency
		t.Fatalf("L1 hit latency = %d, want 4", second)
	}
}

func TestSoleReaderGetsExclusive(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	h.AccessEvent(0, 0x2000, false, sim.Call(func() {}))
	k.Run()
	blk := addr.BlockOf(0x2000)
	if st := h.L1(0).Peek(blk).State; st != Exclusive {
		t.Fatalf("sole reader state = %v, want E", st)
	}
	// A silent upgrade: write hits E in L1 without another L3 trip.
	l3hits := reg.Get("l3.hits")
	h.AccessEvent(0, 0x2000, true, sim.Call(func() {}))
	k.Run()
	if reg.Get("l3.hits") != l3hits {
		t.Fatal("E->M upgrade should not reach L3")
	}
	if st := h.L1(0).Peek(blk).State; st != Modified {
		t.Fatalf("state after write = %v, want M", st)
	}
}

func TestSecondReaderGetsShared(t *testing.T) {
	k, h, _ := newTestHierarchy(t)
	h.AccessEvent(0, 0x3000, false, sim.Call(func() {}))
	k.Run()
	h.AccessEvent(1, 0x3000, false, sim.Call(func() {}))
	k.Run()
	blk := addr.BlockOf(0x3000)
	if st := h.L1(1).Peek(blk).State; st != Shared {
		t.Fatalf("second reader state = %v, want S", st)
	}
	l3 := h.L3Bank(h.bankOf(blk)).Peek(h.bankKey(blk))
	if l3.Sharers != 0b11 {
		t.Fatalf("sharers = %b, want 11", l3.Sharers)
	}
}

func TestWriteInvalidatesOtherSharers(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	h.AccessEvent(0, 0x4000, false, sim.Call(func() {}))
	k.Run()
	h.AccessEvent(1, 0x4000, false, sim.Call(func() {}))
	k.Run()
	h.AccessEvent(0, 0x4000, true, sim.Call(func() {}))
	k.Run()
	blk := addr.BlockOf(0x4000)
	if h.L1(1).Peek(blk) != nil || h.L2(1).Peek(blk) != nil {
		t.Fatal("writer did not invalidate other core's copies")
	}
	if reg.Get("coh.invalidations") == 0 {
		t.Fatal("no invalidations counted")
	}
	if st := h.L1(0).Peek(blk).State; st != Modified {
		t.Fatalf("writer state = %v, want M", st)
	}
}

func TestReadDowngradesModifiedCopy(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	h.AccessEvent(0, 0x5000, true, sim.Call(func() {}))
	k.Run()
	h.AccessEvent(1, 0x5000, false, sim.Call(func() {}))
	k.Run()
	blk := addr.BlockOf(0x5000)
	if st := h.L1(0).Peek(blk).State; st != Shared {
		t.Fatalf("old owner state = %v, want S after downgrade", st)
	}
	if reg.Get("coh.downgrades") == 0 {
		t.Fatal("no downgrade counted")
	}
	l3 := h.L3Bank(h.bankOf(blk)).Peek(h.bankKey(blk))
	if !l3.Dirty {
		t.Fatal("L3 should hold the dirty data after downgrade")
	}
}

func TestMSHRMergeSingleMemoryRead(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	done := 0
	for i := 0; i < 4; i++ {
		h.AccessEvent(0, 0x6000, false, sim.Call(func() { done++ }))
	}
	k.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	if got := reg.Get("offchip.req.packets"); got != 1 {
		t.Fatalf("memory requests = %d, want 1 (merged)", got)
	}
}

func TestCrossCoreMergeAtL3(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	done := 0
	h.AccessEvent(0, 0x7000, false, sim.Call(func() { done++ }))
	h.AccessEvent(1, 0x7000, false, sim.Call(func() { done++ }))
	k.Run()
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if got := reg.Get("offchip.req.packets"); got != 1 {
		t.Fatalf("memory requests = %d, want 1", got)
	}
}

func TestBackInvalidateRemovesEverywhereAndWritesDirty(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	h.AccessEvent(0, 0x8000, true, sim.Call(func() {})) // dirty in core 0
	k.Run()
	resBytes := reg.Get("offchip.req.bytes")
	invDone := false
	h.BackInvalidateEvent(0x8000, sim.Call(func() { invDone = true }))
	k.Run()
	if !invDone {
		t.Fatal("BackInvalidate never completed")
	}
	if h.CachedAnywhere(0x8000) {
		t.Fatal("block still cached after BackInvalidate")
	}
	if reg.Get("offchip.req.bytes") <= resBytes {
		t.Fatal("dirty data was not written to memory")
	}
}

func TestBackWritebackKeepsCleanCopies(t *testing.T) {
	k, h, _ := newTestHierarchy(t)
	h.AccessEvent(0, 0x9000, true, sim.Call(func() {}))
	k.Run()
	blk := addr.BlockOf(0x9000)
	done := false
	h.BackWritebackEvent(0x9000, sim.Call(func() { done = true }))
	k.Run()
	if !done {
		t.Fatal("BackWriteback never completed")
	}
	l := h.L1(0).Peek(blk)
	if l == nil {
		t.Fatal("BackWriteback evicted the block; it should stay cached")
	}
	if l.Dirty {
		t.Fatal("block still dirty after BackWriteback")
	}
}

func TestBackInvalidateCleanBlockNoMemoryWrite(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	h.AccessEvent(0, 0xA000, false, sim.Call(func() {}))
	k.Run()
	wrBefore := reg.Get("dram.writes")
	h.BackInvalidateEvent(0xA000, sim.Call(func() {}))
	k.Run()
	if reg.Get("dram.writes") != wrBefore {
		t.Fatal("clean invalidation should not write memory")
	}
}

func TestOnL3AccessHookFires(t *testing.T) {
	k, h, _ := newTestHierarchy(t)
	var seen []uint64
	h.OnL3Access = func(blk uint64) { seen = append(seen, blk) }
	h.AccessEvent(0, 0xB000, false, sim.Call(func() {}))
	k.Run()
	if len(seen) != 1 || seen[0] != addr.BlockOf(0xB000) {
		t.Fatalf("hook saw %v", seen)
	}
	// L1 hits must not reach the hook.
	h.AccessEvent(0, 0xB000, false, sim.Call(func() {}))
	k.Run()
	if len(seen) != 1 {
		t.Fatal("L1 hit leaked to the L3 hook")
	}
}

// Inclusion invariant: any block valid in a private cache is valid in
// the L3 (or has an L3 fill in flight — so check after drain).
func checkInclusion(t *testing.T, h *Hierarchy) {
	t.Helper()
	for c := 0; c < h.cfg.Cores; c++ {
		for _, pc := range []*Cache{h.l1[c], h.l2[c]} {
			pc.ForEach(func(_ int, l *Line) {
				blk := l.Key
				if h.l3[h.bankOf(blk)].Peek(h.bankKey(blk)) == nil {
					t.Fatalf("inclusion violated: core %d holds block %#x absent from L3", c, blk)
				}
			})
		}
	}
}

func TestInclusionUnderRandomTraffic(t *testing.T) {
	k, h, _ := newTestHierarchy(t)
	rng := rand.New(rand.NewSource(42))
	outstanding := 0
	for i := 0; i < 3000; i++ {
		core := rng.Intn(4)
		// Footprint bigger than L3 to force evictions.
		a := uint64(rng.Intn(16384)) * addr.BlockBytes
		outstanding++
		h.AccessEvent(core, a, rng.Intn(3) == 0, sim.Call(func() { outstanding-- }))
		if i%16 == 15 {
			k.Run()
		}
	}
	k.Run()
	if outstanding != 0 {
		t.Fatalf("%d accesses never completed", outstanding)
	}
	checkInclusion(t, h)
}

func TestInclusionAfterBackOps(t *testing.T) {
	k, h, _ := newTestHierarchy(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := uint64(rng.Intn(512)) * addr.BlockBytes
		switch rng.Intn(4) {
		case 0:
			h.BackInvalidateEvent(a, sim.Call(func() {}))
		case 1:
			h.BackWritebackEvent(a, sim.Call(func() {}))
		default:
			h.AccessEvent(rng.Intn(4), a, rng.Intn(2) == 0, sim.Call(func() {}))
		}
		if i%8 == 7 {
			k.Run()
		}
	}
	k.Run()
	checkInclusion(t, h)
}

func TestUpgradeReplayForMergedStore(t *testing.T) {
	k, h, _ := newTestHierarchy(t)
	// A load and a store to the same block issued back-to-back: the
	// store merges into the load's MSHR and must still end Modified.
	loadDone, storeDone := false, false
	h.AccessEvent(0, 0xC000, false, sim.Call(func() { loadDone = true }))
	h.AccessEvent(0, 0xC000, true, sim.Call(func() { storeDone = true }))
	k.Run()
	if !loadDone || !storeDone {
		t.Fatalf("load/store done = %v/%v", loadDone, storeDone)
	}
	blk := addr.BlockOf(0xC000)
	if st := h.L1(0).Peek(blk).State; st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestPrefetcherFillsNextLines(t *testing.T) {
	cfg := config.Scaled()
	cfg.PrefetchDepth = 2
	k := sim.NewKernel()
	reg := stats.NewRegistry()
	chain := hmc.NewChain(k, hmc.Config{
		Mapping:           cfg.Mapping(),
		Timing:            dram.Timing{TCL: cfg.TCL, TRCD: cfg.TRCD, TRP: cfg.TRP, IssueGap: 2},
		LinkBytesPerCycle: cfg.LinkBytesPerCycle,
		LinkLatency:       cfg.LinkLatency,
		HopLatency:        cfg.HopLatency,
		TSVBytesPerCycle:  cfg.TSVBytesPerCycle,
		TSVLatency:        cfg.TSVLatency,
		PacketHeaderBytes: cfg.PacketHeaderBytes,
	}, reg)
	h := NewHierarchy(k, cfg, chain, reg)
	h.AccessEvent(0, 0x10000, false, sim.Call(func() {}))
	k.Run()
	if reg.Get("l2.prefetches") != 2 {
		t.Fatalf("prefetches = %d, want 2", reg.Get("l2.prefetches"))
	}
	// The next two blocks are now resident: accessing them hits.
	blk := addr.BlockOf(0x10000)
	if h.L2(0).Peek(blk+1) == nil || h.L2(0).Peek(blk+2) == nil {
		t.Fatal("prefetched blocks not resident in L2")
	}
	// A sequential stream should now have far fewer demand misses.
	missesBefore := reg.Get("l2.misses")
	done := 0
	for i := 1; i <= 2; i++ {
		h.AccessEvent(0, 0x10000+uint64(i*64), false, sim.Call(func() { done++ }))
	}
	k.Run()
	if done != 2 {
		t.Fatal("accesses lost")
	}
	if reg.Get("l2.misses") != missesBefore {
		t.Fatal("prefetched blocks still missed")
	}
}

func TestPrefetcherOffByDefault(t *testing.T) {
	k, h, reg := newTestHierarchy(t)
	h.AccessEvent(0, 0x20000, false, sim.Call(func() {}))
	k.Run()
	if reg.Get("l2.prefetches") != 0 {
		t.Fatal("prefetches issued with depth 0")
	}
	_ = h
}

// missStream keeps a fixed number of reads in flight on core 0: every
// completion issues the next read of a working set that is 4x the
// scaled L2 and a quarter of the L3, so each read misses in L2 and hits
// in L3.
type missStream struct {
	h    *Hierarchy
	next uint64
	done int
}

const missStreamBlocks = 1024

func (s *missStream) OnEvent(sim.EventArg) {
	s.done++
	s.issue()
}

func (s *missStream) issue() {
	s.h.AccessEvent(0, s.next*addr.BlockBytes, false, sim.Cont{H: s})
	s.next = (s.next + 1) % missStreamBlocks
}

// runUntil dispatches events until done reads have completed, or until
// the kernel runs dry (which the caller's backlog check then reports).
func (s *missStream) runUntil(k *sim.Kernel, done int) {
	for s.done < done && k.Step() {
	}
}

// TestMSHRPendBacklogSteadyStateAllocs oversubscribes core 0's private
// MSHRs for good: twice as many reads are in flight as there are MSHRs,
// so requests park on the MSHR-full pend list and it never drains.
// Once warm, the miss path allocates nothing, and the pend list's
// storage stays bounded by its backlog rather than growing with the
// number of stalls.
func TestMSHRPendBacklogSteadyStateAllocs(t *testing.T) {
	k, h, _ := newTestHierarchy(t)
	s := &missStream{h: h}
	for i := 0; i < 2*h.cfg.L2.MSHRs; i++ {
		s.issue()
	}
	s.runUntil(k, 10_000)
	allocs := testing.AllocsPerRun(3, func() { s.runUntil(k, s.done+100_000) })
	if allocs != 0 {
		t.Fatalf("backlogged miss path allocates %.0f objects per 100k reads, want 0", allocs)
	}
	if h.privPend[0].Len() == 0 {
		t.Fatal("pend list drained: the test no longer exercises a backlog")
	}
}
