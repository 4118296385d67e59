package cpu

import (
	"reflect"
	"testing"
	"unsafe"

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

// prefilled returns a Queue holding ops, with no Fill.
func prefilled(ops ...Op) *Queue {
	q := &Queue{}
	for _, op := range ops {
		q.Push(op)
	}
	return q
}

func loads(n int) *Queue {
	q := &Queue{}
	for i := 0; i < n; i++ {
		q.PushLoad(uint64(i * 64))
	}
	return q
}

func TestWindowBoundsMLP(t *testing.T) {
	k := sim.NewKernel()
	c, m, _ := newTestCore(k, 4, 8)
	c.Run(loads(64))
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
	c.Run(loads(10))
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
	c.Run(prefilled(
		Op{Kind: OpCompute, N: 500},
		Op{Kind: OpLoad, Addr: 0},
	))
	k.RunUntil(499)
	if len(m.addrs) != 0 {
		t.Fatal("load issued during compute block")
	}
	k.Run()
	if c.Retired != 2 {
		t.Fatalf("retired %d, want 2", c.Retired)
	}
}

// tagSink records the tags of retired PEIs.
type tagSink struct{ tags []uint32 }

func (s *tagSink) PEIDone(p *pim.PEI) { s.tags = append(s.tags, p.Tag) }

func TestPEIIssueAndRetire(t *testing.T) {
	k := sim.NewKernel()
	c, _, p := newTestCore(k, 4, 8)
	sink := &tagSink{}
	q := &Queue{Sink: sink}
	q.PushPEI(pim.OpInc64, 64, 0, 7)
	q.PushPEI(pim.OpInc64, 128, 0, 9)
	c.Run(q)
	k.Run()
	if p.issued != 2 || c.RetiredPEIs != 2 {
		t.Fatalf("issued/retired PEIs = %d/%d", p.issued, c.RetiredPEIs)
	}
	if len(sink.tags) != 2 || sink.tags[0] != 7 || sink.tags[1] != 9 {
		t.Fatalf("sink saw tags %v, want [7 9]", sink.tags)
	}
	if len(p.cores) != 2 || p.cores[0] != c.ID || p.cores[1] != c.ID {
		t.Fatalf("PEIs issued as cores %v, want core %d", p.cores, c.ID)
	}
}

func TestFenceStallsIssue(t *testing.T) {
	k := sim.NewKernel()
	c, m, p := newTestCore(k, 4, 8)
	c.Run(prefilled(
		Op{Kind: OpFence},
		Op{Kind: OpLoad, Addr: 64},
	))
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
	c.Run(prefilled(
		Op{Kind: OpLoad, Addr: 0},
		Op{Kind: OpPEI, PEIOp: pim.OpInc64, Addr: 64},
	))
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
	c.Run(&Queue{})
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

// TestQueueDropsHubBuffer checks that one hub-sized batch does not pin
// its buffer: once drained, the Queue keeps at most retainOps of
// capacity, and every op still arrives in order.
func TestQueueDropsHubBuffer(t *testing.T) {
	sizes := []int{100, 4 * retainOps, 100, 100}
	batch := 0
	q := &Queue{Fill: func(q *Queue) bool {
		if batch == len(sizes) {
			return false
		}
		for i := 0; i < sizes[batch]; i++ {
			q.PushLoad(uint64(batch)<<32 | uint64(i))
		}
		batch++
		return true
	}}
	for b, n := range sizes {
		for i := 0; i < n; i++ {
			op, ok := q.Next()
			if want := uint64(b)<<32 | uint64(i); !ok || op.Addr != want {
				t.Fatalf("batch %d op %d: got %#x (ok %v), want %#x", b, i, op.Addr, ok, want)
			}
		}
		if b == 1 && cap(q.buf) < 4*retainOps {
			t.Fatalf("hub batch held in %d ops of capacity, want at least %d", cap(q.buf), 4*retainOps)
		}
		if b > 1 && cap(q.buf) > retainOps {
			t.Fatalf("after the hub batch, batch %d keeps %d ops of capacity, want at most %d", b, cap(q.buf), retainOps)
		}
	}
	if _, ok := q.Next(); ok {
		t.Fatal("ops after the last batch")
	}
}

// TestOpRecordLayout pins the op record at 24 bytes with no pointer
// fields, so op buffers keep nothing reachable.
func TestOpRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size != 24 {
		t.Fatalf("Op is %d bytes, want 24", size)
	}
	typ := reflect.TypeOf(Op{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() > reflect.Uint64 {
			t.Fatalf("Op.%s is a %s, want a plain integer", f.Name, f.Type)
		}
	}
}

func TestQueueEmitters(t *testing.T) {
	q := &Queue{}
	q.PushCompute(5)
	q.PushStore(64)
	q.PushPEI(pim.OpInc64, 64, 0, 0)
	q.PushPEI(pim.OpDotProduct, 128, 3, 0)
	q.PushFence()
	kinds := []OpKind{OpCompute, OpStore, OpPEI, OpPEIVec, OpFence}
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

// recordingPMU retires every PEI after a fixed latency, writing a
// one-byte output, and keeps what it saw of each record at issue.
type recordingPMU struct {
	k       *sim.Kernel
	records map[*pim.PEI]bool
	seen    []issued
}

// issued is a record's state at issue; input is a copy (the record's
// own buffer is reused), inputAt the address the record pointed at.
type issued struct {
	tag     uint32
	input   []byte
	inputAt *byte
	output  []byte
}

func (p *recordingPMU) IssueEvent(core int, pei *pim.PEI, done sim.Cont) {
	p.records[pei] = true
	s := issued{tag: pei.Tag, input: append([]byte(nil), pei.Input...), output: pei.Output}
	if len(pei.Input) > 0 {
		s.inputAt = &pei.Input[0]
	}
	p.seen = append(p.seen, s)
	p.k.Schedule(20, func() {
		pei.Output = []byte{0xAA}
		done.Invoke()
	})
}

func (p *recordingPMU) FenceEvent(done sim.Cont) { p.k.ScheduleEvent(1, done.H, done.Arg) }

// TestPEIRecordsRecycled pins the record lifecycle: records are drawn at
// issue and returned at retire, so a core never holds more than its
// window, and a recycled record carries no input, output or tag from
// its previous life.
func TestPEIRecordsRecycled(t *testing.T) {
	k := sim.NewKernel()
	pmu := &recordingPMU{k: k, records: map[*pim.PEI]bool{}}
	const window = 4
	c := NewCore(0, k, 4, window, &fakeMem{k: k, latency: 1}, pmu)
	q := &Queue{Sink: &tagSink{}, Vectors: [][]byte{make([]byte, 32)}}
	for i := 0; i < 16; i++ {
		// First lives carry a tagged 8-byte input; second lives none.
		q.PushPEI(pim.OpMin64, uint64(i*64), uint64(i+1), uint32(i+1))
	}
	q.PushFence()
	for i := 0; i < 16; i++ {
		q.PushPEI(pim.OpInc64, uint64(i*64), 0, 0)
	}
	q.PushPEI(pim.OpDotProduct, 0, 0, 0)
	c.Run(q)
	k.Run()
	if !c.Done() || c.RetiredPEIs != 33 {
		t.Fatalf("done %v, retired PEIs %d; want true, 33", c.Done(), c.RetiredPEIs)
	}
	if len(pmu.records) > window {
		t.Fatalf("%d PEI records for a window of %d", len(pmu.records), window)
	}
	for i, p := range pmu.seen {
		if p.output != nil {
			t.Fatalf("PEI %d issued with a stale output %v", i, p.output)
		}
		switch {
		case i < 16:
			if p.tag != uint32(i+1) || len(p.input) != 8 || p.input[0] != byte(i+1) {
				t.Fatalf("PEI %d issued with tag %d, input %v", i, p.tag, p.input)
			}
		case i < 32:
			if p.tag != 0 || len(p.input) != 0 {
				t.Fatalf("recycled PEI %d issued with tag %d, input %v", i, p.tag, p.input)
			}
		default:
			if len(p.input) != 32 || p.inputAt != &q.Vectors[0][0] {
				t.Fatalf("vector PEI input %v does not alias the queue's operand", p.input)
			}
		}
	}
}

// TestBarrierHoldsEarlyArrivals runs two cores into one barrier; the
// early one must not issue past it until the late one arrives.
func TestBarrierHoldsEarlyArrivals(t *testing.T) {
	k := sim.NewKernel()
	b := NewBarrier(2)
	fast, mFast, _ := newTestCore(k, 4, 8)
	slow, _, _ := newTestCore(k, 4, 8)
	fq := prefilled(Op{Kind: OpBarrier}, Op{Kind: OpLoad, Addr: 64})
	sq := prefilled(Op{Kind: OpCompute, N: 300}, Op{Kind: OpBarrier})
	fq.Barrier, sq.Barrier = b, b
	fast.Run(fq)
	slow.Run(sq)
	k.RunUntil(299)
	if len(mFast.addrs) != 0 || b.Generations != 0 {
		t.Fatalf("by cycle 299: %d loads past the barrier, %d episodes; want 0, 0", len(mFast.addrs), b.Generations)
	}
	k.Run()
	if b.Generations != 1 || !fast.Done() || !slow.Done() || fast.Retired != 2 || slow.Retired != 2 {
		t.Fatalf("episodes %d, retired %d/%d; want 1, 2/2", b.Generations, fast.Retired, slow.Retired)
	}
}
