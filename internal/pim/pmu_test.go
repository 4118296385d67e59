package pim

import (
	"math"
	"testing"

	"pimsim/internal/addr"
	"pimsim/internal/cache"
	"pimsim/internal/config"
	"pimsim/internal/dram"
	"pimsim/internal/hmc"
	"pimsim/internal/memlayout"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

type rig struct {
	k     *sim.Kernel
	cfg   *config.Config
	reg   *stats.Registry
	chain *hmc.Chain
	hier  *cache.Hierarchy
	store *memlayout.Store
	pmu   *PMU
}

func newRig(t testing.TB, mode Mode, mutate func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Scaled()
	if mutate != nil {
		mutate(cfg)
	}
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
		DispatchWindowCyc: cfg.DispatchWindowCyc,
	}, reg)
	hier := cache.NewHierarchy(k, cfg, chain, reg)
	store := memlayout.NewStore()
	pmu := NewPMU(k, cfg, hier, chain, store, mode, reg)
	return &rig{k: k, cfg: cfg, reg: reg, chain: chain, hier: hier, store: store, pmu: pmu}
}

func (r *rig) issueAndRun(t testing.TB, p *PEI) {
	t.Helper()
	done := false
	r.pmu.IssueEvent(0, p, sim.Call(func() { done = true }))
	r.k.Run()
	if !done {
		t.Fatal("PEI never retired")
	}
}

func TestHostOnlyExecutesOnHost(t *testing.T) {
	r := newRig(t, HostOnly, nil)
	a := r.store.Alloc(8, 8)
	r.store.WriteU64(a, 10)
	r.issueAndRun(t, &PEI{Op: OpInc64, Target: a})
	if r.store.ReadU64(a) != 11 {
		t.Fatalf("value = %d, want 11", r.store.ReadU64(a))
	}
	if r.reg.Get("pei.host") != 1 || r.reg.Get("pei.mem") != 0 {
		t.Fatalf("host/mem = %d/%d", r.reg.Get("pei.host"), r.reg.Get("pei.mem"))
	}
	// The host path pulled the block into the cache.
	if !r.hier.CachedAnywhere(a) {
		t.Fatal("host-side PEI should cache its block")
	}
}

func TestPIMOnlyExecutesInMemory(t *testing.T) {
	r := newRig(t, PIMOnly, nil)
	a := r.store.Alloc(8, 8)
	r.store.WriteU64(a, 10)
	r.issueAndRun(t, &PEI{Op: OpInc64, Target: a})
	if r.store.ReadU64(a) != 11 {
		t.Fatalf("value = %d, want 11", r.store.ReadU64(a))
	}
	if r.reg.Get("pei.mem") != 1 {
		t.Fatal("PEI not executed in memory")
	}
	if r.hier.CachedAnywhere(a) {
		t.Fatal("memory-side PEI must not populate caches")
	}
	if r.reg.Get("dram.reads") == 0 {
		t.Fatal("memory-side PEI must access DRAM")
	}
}

func TestMemorySidePEIFlushesDirtyBlock(t *testing.T) {
	r := newRig(t, PIMOnly, nil)
	a := r.store.Alloc(8, 8)
	// Make the block dirty in core 1's cache via a normal store.
	storeDone := false
	r.hier.AccessEvent(1, a, true, sim.Call(func() { storeDone = true }))
	r.k.Run()
	if !storeDone {
		t.Fatal("priming store never completed")
	}
	wbBefore := r.reg.Get("pmu.back_invalidations")
	r.issueAndRun(t, &PEI{Op: OpInc64, Target: a})
	if r.reg.Get("pmu.back_invalidations") != wbBefore+1 {
		t.Fatal("writer PEI must back-invalidate the target block")
	}
	if r.hier.CachedAnywhere(a) {
		t.Fatal("block still cached after back-invalidation")
	}
}

func TestReaderPEIUsesBackWriteback(t *testing.T) {
	r := newRig(t, PIMOnly, nil)
	b := r.store.Alloc(64, 64)
	r.hier.AccessEvent(0, b, true, sim.Cont{})
	r.k.Run()
	r.issueAndRun(t, &PEI{Op: OpHistBin, Target: b, Input: []byte{0}})
	if r.reg.Get("pmu.back_writebacks") != 1 {
		t.Fatal("reader PEI must use back-writeback")
	}
	if r.reg.Get("pmu.back_invalidations") != 0 {
		t.Fatal("reader PEI must not invalidate")
	}
	if !r.hier.CachedAnywhere(b) {
		t.Fatal("back-writeback must keep clean cached copies")
	}
}

func TestAtomicityManyWritersSameBlock(t *testing.T) {
	r := newRig(t, HostOnly, nil)
	a := r.store.Alloc(8, 8)
	retired := 0
	const n = 50
	for i := 0; i < n; i++ {
		r.pmu.IssueEvent(i%r.cfg.Cores, &PEI{Op: OpInc64, Target: a}, sim.Call(func() { retired++ }))
	}
	r.k.Run()
	if retired != n {
		t.Fatalf("retired %d of %d", retired, n)
	}
	if got := r.store.ReadU64(a); got != n {
		t.Fatalf("value = %d, want %d (lost updates)", got, n)
	}
}

func TestAtomicityMixedModesLocalityAware(t *testing.T) {
	r := newRig(t, LocalityAware, nil)
	a := r.store.Alloc(8, 8)
	retired := 0
	const n = 40
	for i := 0; i < n; i++ {
		r.pmu.IssueEvent(i%r.cfg.Cores, &PEI{Op: OpInc64, Target: a}, sim.Call(func() { retired++ }))
	}
	r.k.Run()
	if retired != n || r.store.ReadU64(a) != n {
		t.Fatalf("retired=%d value=%d, want %d/%d", retired, r.store.ReadU64(a), n, n)
	}
	// The stream hammers one block: after warmup the monitor should
	// steer to the host.
	if r.reg.Get("pei.host") == 0 {
		t.Fatal("locality-aware never used the host for a hot block")
	}
}

func TestLocalityAwareColdStreamGoesToMemory(t *testing.T) {
	r := newRig(t, LocalityAware, nil)
	// One PEI per cache block (stride 8 elements) so nothing re-touches
	// a block: pure streaming, zero locality.
	arr := r.store.AllocU64Array(512 * 8)
	retired := 0
	for i := 0; i < 512; i++ {
		r.pmu.IssueEvent(0, &PEI{Op: OpInc64, Target: arr.Addr(i * 8)}, sim.Call(func() { retired++ }))
		if i%8 == 7 {
			r.k.Run()
		}
	}
	r.k.Run()
	if retired != 512 {
		t.Fatalf("retired %d", retired)
	}
	mem, host := r.reg.Get("pei.mem"), r.reg.Get("pei.host")
	if mem <= host*4 {
		t.Fatalf("cold stream: mem=%d host=%d; expected heavy memory steering", mem, host)
	}
}

func TestLocalityAwareHotBlockGoesToHost(t *testing.T) {
	r := newRig(t, LocalityAware, nil)
	a := r.store.Alloc(8, 8)
	// Warm the monitor with cache traffic.
	for i := 0; i < 4; i++ {
		r.hier.AccessEvent(0, a, false, sim.Cont{})
		r.k.Run()
	}
	r.issueAndRun(t, &PEI{Op: OpFloatAdd, Target: a, Input: word(math.Float64bits(1.0))})
	if r.reg.Get("pei.host") != 1 {
		t.Fatal("hot block PEI should run on host")
	}
}

func TestIdealHostNoPCUNoDirectoryCost(t *testing.T) {
	r := newRig(t, IdealHost, nil)
	a := r.store.Alloc(8, 8)
	r.issueAndRun(t, &PEI{Op: OpInc64, Target: a})
	if r.store.ReadU64(a) != 1 {
		t.Fatal("ideal host did not execute")
	}
	if r.reg.Get("pei.host") != 1 {
		t.Fatal("ideal host counts as host execution")
	}
}

func TestPfenceOrdersWriters(t *testing.T) {
	r := newRig(t, LocalityAware, nil)
	arr := r.store.AllocU64Array(64)
	retired := 0
	for i := 0; i < 64; i++ {
		r.pmu.IssueEvent(i%r.cfg.Cores, &PEI{Op: OpInc64, Target: arr.Addr(i)}, sim.Call(func() { retired++ }))
	}
	fenced := false
	r.pmu.FenceEvent(sim.Call(func() {
		fenced = true
		if retired != 64 {
			t.Errorf("fence fired with %d/64 PEIs retired", retired)
		}
		for i := 0; i < 64; i++ {
			if arr.Get(i) != 1 {
				t.Errorf("element %d = %d at fence", i, arr.Get(i))
			}
		}
	}))
	r.k.Run()
	if !fenced {
		t.Fatal("fence never fired")
	}
}

func TestOutputOperandDelivered(t *testing.T) {
	r := newRig(t, PIMOnly, nil)
	b := r.store.Alloc(64, 64)
	r.store.WriteU64(b+HashBucketKeyOff, 42)
	p := &PEI{Op: OpHashProbe, Target: b, Input: word(42)}
	r.issueAndRun(t, p)
	if len(p.Output) != 9 || p.Output[0] != 1 {
		t.Fatalf("output = %v, want match", p.Output)
	}
}

func TestBalancedDispatchRedirectsToHost(t *testing.T) {
	r := newRig(t, LocalityAware, func(c *config.Config) { c.BalancedDispatch = true })
	// Saturate the request direction with writes so C_req >> C_res.
	for i := 0; i < 50; i++ {
		r.chain.WriteEvent(uint64(i)*addr.BlockBytes+1<<19, sim.Cont{})
	}
	r.k.Run()
	if r.chain.ReqPressure() <= r.chain.ResPressure() {
		t.Fatal("test setup: request pressure should dominate")
	}
	// A Euclidean-distance PEI (64 B input) on a cold block would cost
	// 80 B of request bandwidth in memory but only 16 B on the host:
	// balanced dispatch must choose the host despite the monitor miss.
	blkBase := r.store.Alloc(64, 64)
	r.issueAndRun(t, &PEI{Op: OpEuclideanDist, Target: blkBase, Input: make([]byte, 64)})
	if r.reg.Get("pei.host") != 1 {
		t.Fatal("balanced dispatch should redirect to host under request pressure")
	}
	if r.reg.Get("pei.balanced_to_host") != 1 {
		t.Fatal("balanced dispatch counter not incremented")
	}
}

func TestOperandBufferSaturation(t *testing.T) {
	small := newRig(t, HostOnly, func(c *config.Config) { c.OperandBufferEntries = 1 })
	arr := small.store.AllocU64Array(32)
	retired := 0
	for i := 0; i < 32; i++ {
		small.pmu.IssueEvent(0, &PEI{Op: OpInc64, Target: arr.Addr(i)}, sim.Call(func() { retired++ }))
	}
	small.k.Run()
	if retired != 32 {
		t.Fatalf("retired %d", retired)
	}
	if small.pmu.HostPCU[0].BufferFullStalls == 0 {
		t.Fatal("single-entry buffer should stall under 32 back-to-back PEIs")
	}
}

func TestInvalidPEIPanics(t *testing.T) {
	r := newRig(t, HostOnly, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid PEI")
		}
	}()
	r.pmu.IssueEvent(0, &PEI{Op: OpMin64, Target: 64, Input: nil}, sim.Cont{})
}

func TestSummaryString(t *testing.T) {
	r := newRig(t, HostOnly, nil)
	a := r.store.Alloc(8, 8)
	r.issueAndRun(t, &PEI{Op: OpInc64, Target: a})
	s := r.pmu.Summary()
	if s == "" {
		t.Fatal("empty summary")
	}
}

func TestHMC2AtomicsMode(t *testing.T) {
	r := newRig(t, PIMOnly, func(c *config.Config) { c.HMC2AtomicsMode = true })
	arr := r.store.AllocU64Array(32)
	retired := 0
	for i := 0; i < 32; i++ {
		r.pmu.IssueEvent(0, &PEI{Op: OpInc64, Target: arr.Addr(i)}, sim.Call(func() { retired++ }))
	}
	r.k.Run()
	if retired != 32 {
		t.Fatalf("retired %d", retired)
	}
	for i := 0; i < 32; i++ {
		if arr.Get(i) != 1 {
			t.Fatalf("element %d = %d", i, arr.Get(i))
		}
	}
	// No directory traffic and no coherence actions in this mode.
	if r.reg.Get("pmu.dir_blocked") != 0 {
		t.Fatal("HMC2 mode must not use the PIM directory")
	}
	if r.reg.Get("pmu.back_invalidations") != 0 {
		t.Fatal("HMC2 mode must not issue back-invalidations")
	}
	if r.reg.Get("pei.mem") != 32 {
		t.Fatal("HMC2 atomics must execute in memory")
	}
}

// pfence still works in HMC2 mode (writers are registered but released
// without directory entries)? No: HMC2 atomics bypass the directory, so
// pfence cannot order them — exactly the interoperability gap the paper
// calls out for prior PIM interfaces. Pin that behavior.
func TestHMC2AtomicsBypassFence(t *testing.T) {
	r := newRig(t, PIMOnly, func(c *config.Config) { c.HMC2AtomicsMode = true })
	a := r.store.Alloc(8, 8)
	r.pmu.IssueEvent(0, &PEI{Op: OpInc64, Target: a}, sim.Cont{})
	fenced := false
	r.pmu.FenceEvent(sim.Call(func() { fenced = true }))
	r.k.RunUntil(10)
	if !fenced {
		t.Fatal("fence should return immediately: HMC2 atomics are invisible to it")
	}
	r.k.Run()
}
