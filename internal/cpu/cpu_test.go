package cpu

import (
	"testing"

	"pimsim/internal/pim"
	"pimsim/internal/sim"
)

// fakeMem completes accesses after a fixed latency and records order.
type fakeMem struct {
	k       *sim.Kernel
	latency sim.Cycle
	addrs   []uint64
	active  int
	maxConc int
}

func (m *fakeMem) AccessEvent(core int, a uint64, write bool, done sim.Cont) {
	m.addrs = append(m.addrs, a)
	m.active++
	if m.active > m.maxConc {
		m.maxConc = m.active
	}
	m.k.Schedule(m.latency, func() {
		m.active--
		done.Invoke()
	})
}

type fakePMU struct {
	k      *sim.Kernel
	issued int
	fences int
	cores  []int
}

func (p *fakePMU) IssueEvent(core int, pei *pim.PEI, done sim.Cont) {
	p.issued++
	p.cores = append(p.cores, core)
	p.k.ScheduleEvent(50, done.H, done.Arg)
}

func (p *fakePMU) FenceEvent(done sim.Cont) {
	p.fences++
	p.k.ScheduleEvent(10, done.H, done.Arg)
}

func newTestCore(k *sim.Kernel, width, window int) (*Core, *fakeMem, *fakePMU) {
	m := &fakeMem{k: k, latency: 100}
	p := &fakePMU{k: k}
	return NewCore(3, k, width, window, m, p), m, p
}

func loads(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpLoad, Addr: uint64(i * 64)}
	}
	return ops
}

func TestWindowBoundsMLP(t *testing.T) {
	k := sim.NewKernel()
	c, m, _ := newTestCore(k, 4, 8)
	c.Run(&SliceStream{Ops: loads(64)})
	k.Run()
	if !c.Done() {
		t.Fatal("core never finished")
	}
	if c.Retired != 64 {
		t.Fatalf("retired %d, want 64", c.Retired)
	}
	if m.maxConc > 8 {
		t.Fatalf("max concurrency %d exceeds window 8", m.maxConc)
	}
	if m.maxConc < 8 {
		t.Fatalf("max concurrency %d; window underutilized", m.maxConc)
	}
}

func TestIssueWidthBoundsPerCycleIssue(t *testing.T) {
	k := sim.NewKernel()
	c, m, _ := newTestCore(k, 2, 64)
	c.Run(&SliceStream{Ops: loads(10)})
	// After the first cycle only 2 ops may have issued.
	k.RunUntil(0)
	if len(m.addrs) > 2 {
		t.Fatalf("issued %d ops in cycle 0, width is 2", len(m.addrs))
	}
	k.Run()
	if c.Retired != 10 {
		t.Fatalf("retired %d", c.Retired)
	}
}

func TestComputeBlocksIssue(t *testing.T) {
	k := sim.NewKernel()
	c, m, _ := newTestCore(k, 4, 64)
	c.Run(&SliceStream{Ops: []Op{
		{Kind: OpCompute, Cycles: 500},
		{Kind: OpLoad, Addr: 0},
	}})
	k.RunUntil(499)
	if len(m.addrs) != 0 {
		t.Fatal("load issued during compute block")
	}
	k.Run()
	if c.Retired != 2 {
		t.Fatalf("retired %d, want 2", c.Retired)
	}
}

func TestPEIIssueAndRetire(t *testing.T) {
	k := sim.NewKernel()
	c, _, p := newTestCore(k, 4, 8)
	userDone := 0
	ops := []Op{
		{Kind: OpPEI, PEI: &pim.PEI{Op: pim.OpInc64, Target: 64, Done: func() { userDone++ }}},
		{Kind: OpPEI, PEI: &pim.PEI{Op: pim.OpInc64, Target: 128}},
	}
	c.Run(&SliceStream{Ops: ops})
	k.Run()
	if p.issued != 2 || c.RetiredPEIs != 2 {
		t.Fatalf("issued/retired PEIs = %d/%d", p.issued, c.RetiredPEIs)
	}
	if userDone != 1 {
		t.Fatal("user Done callback not preserved")
	}
	if len(p.cores) != 2 || p.cores[0] != c.ID || p.cores[1] != c.ID {
		t.Fatalf("PEIs issued as cores %v, want core %d", p.cores, c.ID)
	}
}

func TestFenceStallsIssue(t *testing.T) {
	k := sim.NewKernel()
	c, m, p := newTestCore(k, 4, 8)
	c.Run(&SliceStream{Ops: []Op{
		{Kind: OpFence},
		{Kind: OpLoad, Addr: 64},
	}})
	k.RunUntil(5)
	if len(m.addrs) != 0 {
		t.Fatal("load issued before fence completed")
	}
	k.Run()
	if p.fences != 1 || c.Retired != 2 {
		t.Fatalf("fences=%d retired=%d", p.fences, c.Retired)
	}
}

func TestDoneWaitsForLastRetire(t *testing.T) {
	k := sim.NewKernel()
	c, _, _ := newTestCore(k, 4, 8)
	c.Run(&SliceStream{Ops: []Op{
		{Kind: OpLoad, Addr: 0},
		{Kind: OpPEI, PEI: &pim.PEI{Op: pim.OpInc64, Target: 64}},
	}})
	k.RunUntil(60) // the PEI has retired, the load is still in flight
	if c.RetiredPEIs != 1 || c.Done() {
		t.Fatalf("at cycle 60: retired PEIs %d, Done %v; want 1, false", c.RetiredPEIs, c.Done())
	}
	k.Run()
	if !c.Done() || c.Retired != 2 {
		t.Fatalf("after the run: Done %v, retired %d; want true, 2", c.Done(), c.Retired)
	}
}

func TestEmptyStream(t *testing.T) {
	k := sim.NewKernel()
	c, _, _ := newTestCore(k, 4, 8)
	c.Run(&SliceStream{})
	if !c.Done() {
		t.Fatal("empty stream should finish immediately")
	}
}

func TestQueueRefill(t *testing.T) {
	batch := 0
	q := &Queue{Fill: func(q *Queue) bool {
		if batch >= 3 {
			return false
		}
		for i := 0; i < 4; i++ {
			q.PushLoad(uint64(batch*4+i) * 64)
		}
		batch++
		return true
	}}
	var seen []uint64
	for {
		op, ok := q.Next()
		if !ok {
			break
		}
		seen = append(seen, op.Addr)
	}
	if len(seen) != 12 {
		t.Fatalf("saw %d ops, want 12", len(seen))
	}
	for i, a := range seen {
		if a != uint64(i)*64 {
			t.Fatalf("op %d addr %d, want %d", i, a, i*64)
		}
	}
}

func TestQueueEmitters(t *testing.T) {
	q := &Queue{}
	q.PushCompute(5)
	q.PushStore(64)
	q.PushPEI(&pim.PEI{Op: pim.OpInc64, Target: 64})
	q.PushFence()
	kinds := []OpKind{OpCompute, OpStore, OpPEI, OpFence}
	for i, want := range kinds {
		op, ok := q.Next()
		if !ok || op.Kind != want {
			t.Fatalf("op %d kind %v, want %v", i, op.Kind, want)
		}
	}
	if _, ok := q.Next(); ok {
		t.Fatal("queue should be exhausted")
	}
}
