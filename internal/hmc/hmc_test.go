package hmc

import (
	"testing"

	"pimsim/internal/addr"
	"pimsim/internal/dram"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

func testConfig() Config {
	return Config{
		Mapping:           addr.Mapping{Cubes: 2, VaultsPerCube: 4, BanksPerVault: 4, RowBytes: 8192, InterleaveBlocks: 1},
		Timing:            dram.Timing{TCL: 55, TRCD: 55, TRP: 55, IssueGap: 2},
		LinkBytesPerCycle: 10,
		LinkLatency:       16,
		HopLatency:        8,
		TSVBytesPerCycle:  4,
		TSVLatency:        4,
		PacketHeaderBytes: 16,
	}
}

func newTestChain() (*sim.Kernel, *Chain, *stats.Registry) {
	k := sim.NewKernel()
	reg := stats.NewRegistry()
	return k, NewChain(k, testConfig(), reg), reg
}

func TestChainGeometry(t *testing.T) {
	_, ch, _ := newTestChain()
	if len(ch.Cubes) != 2 || len(ch.Cubes[0].Vaults) != 4 {
		t.Fatal("chain geometry wrong")
	}
	if ch.Cubes[1].Vaults[2].Index != 6 {
		t.Fatalf("vault index = %d, want 6", ch.Cubes[1].Vaults[2].Index)
	}
}

func TestReadRoundTrip(t *testing.T) {
	k, ch, reg := newTestChain()
	var done sim.Cycle = -1
	ch.ReadEvent(0, sim.Call(func() { done = k.Now() }))
	k.Run()
	if done < 0 {
		t.Fatal("read never completed")
	}
	// Request: 16 B @10 B/cyc = 2 cyc + 16 latency = arrives 18 (cube 0,
	// no hops). DRAM row miss 110 -> 128. TSV: 64 B @4 = 16 + 4 = 148.
	// Response: 80 B @10 = 8 + 16 = done at 172.
	if done != 172 {
		t.Fatalf("read completed at %d, want 172", done)
	}
	if reg.Get("offchip.req.bytes") != 16 || reg.Get("offchip.res.bytes") != 80 {
		t.Fatalf("req/res bytes = %d/%d, want 16/80",
			reg.Get("offchip.req.bytes"), reg.Get("offchip.res.bytes"))
	}
}

func TestWritePacketSizes(t *testing.T) {
	k, ch, reg := newTestChain()
	completed := false
	ch.WriteEvent(64*3, sim.Call(func() { completed = true }))
	k.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	// Footnote 7: write consumes 80 B of request bandwidth; ack is a
	// bare header.
	if reg.Get("offchip.req.bytes") != 80 || reg.Get("offchip.res.bytes") != 16 {
		t.Fatalf("req/res bytes = %d/%d, want 80/16",
			reg.Get("offchip.req.bytes"), reg.Get("offchip.res.bytes"))
	}
}

func TestSecondCubePaysHopLatency(t *testing.T) {
	k, ch, _ := newTestChain()
	var c0, c1 sim.Cycle
	// Block 0 -> cube 0; block 1 -> cube 1 (interleaved).
	ch.ReadEvent(0, sim.Call(func() { c0 = k.Now() }))
	k.Run()
	k2 := sim.NewKernel()
	ch2 := NewChain(k2, testConfig(), stats.NewRegistry())
	ch2.ReadEvent(64, sim.Call(func() { c1 = k2.Now() }))
	k2.Run()
	if c1 != c0+2*8 { // one hop each direction
		t.Fatalf("cube1 read at %d, cube0 at %d; want +16", c1, c0)
	}
}

func TestVaultForMatchesMapping(t *testing.T) {
	_, ch, _ := newTestChain()
	m := testConfig().Mapping
	for blk := uint64(0); blk < 64; blk++ {
		a := blk * addr.BlockBytes
		v, loc := ch.VaultFor(a)
		want := m.Locate(a)
		if loc != want {
			t.Fatalf("VaultFor loc %+v, want %+v", loc, want)
		}
		if v.Index != want.Cube*m.VaultsPerCube+want.Vault {
			t.Fatalf("vault index %d wrong for %+v", v.Index, want)
		}
	}
}

// respondVisitor answers every delivered request with a response of
// respBytes payload and runs done when that response reaches the host.
type respondVisitor struct {
	respBytes int
	done      func()
}

func (rv *respondVisitor) AtVault(t *Txn) { t.Respond(rv.respBytes, sim.Call(rv.done)) }

func TestDeliverCustomPayloadAndResponse(t *testing.T) {
	k, ch, reg := newTestChain()
	var respDone bool
	// PIM-style packet: 8 B input operand, 9 B output (hash probe).
	ch.DeliverEvent(128, CmdPEI, 8, &respondVisitor{respBytes: 9, done: func() { respDone = true }}, sim.Cont{})
	k.Run()
	if !respDone {
		t.Fatal("response never delivered")
	}
	if reg.Get("offchip.req.bytes") != 24 || reg.Get("offchip.res.bytes") != 25 {
		t.Fatalf("req/res = %d/%d, want 24/25",
			reg.Get("offchip.req.bytes"), reg.Get("offchip.res.bytes"))
	}
}

// Framing comes from the configured header size in both directions: a
// read is a bare-header request and a header+block response, a write a
// header+block request and a bare-header ack.
func TestPacketHeaderBytesFramesBothDirections(t *testing.T) {
	for _, tc := range []struct {
		name             string
		issue            func(ch *Chain)
		wantReq, wantRes int64
	}{
		{"read", func(ch *Chain) { ch.ReadEvent(0, sim.Cont{}) }, 32, 96},
		{"write", func(ch *Chain) { ch.WriteEvent(0, sim.Cont{}) }, 96, 32},
	} {
		k := sim.NewKernel()
		reg := stats.NewRegistry()
		cfg := testConfig()
		cfg.PacketHeaderBytes = 32
		ch := NewChain(k, cfg, reg)
		tc.issue(ch)
		k.Run()
		if got, gotRes := reg.Get("offchip.req.bytes"), reg.Get("offchip.res.bytes"); got != tc.wantReq || gotRes != tc.wantRes {
			t.Errorf("%s with 32 B headers: req/res bytes = %d/%d, want %d/%d", tc.name, got, gotRes, tc.wantReq, tc.wantRes)
		}
	}
}

func TestPressureCountersAccumulateAndHalve(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.DispatchWindowCyc = 1000
	ch := NewChain(k, cfg, stats.NewRegistry())
	ch.ReadEvent(0, sim.Cont{}) // 1 req flit, 5 res flits
	k.RunUntil(500)
	if ch.ReqPressure() != 1 || ch.ResPressure() != 5 {
		t.Fatalf("pressure = %v/%v, want 1/5", ch.ReqPressure(), ch.ResPressure())
	}
	k.RunUntil(1500)
	if ch.ReqPressure() != 0.5 || ch.ResPressure() != 2.5 {
		t.Fatalf("halved pressure = %v/%v, want 0.5/2.5", ch.ReqPressure(), ch.ResPressure())
	}
}

func TestParallelVaultReads(t *testing.T) {
	k, ch, _ := newTestChain()
	done := 0
	// 8 reads across 8 distinct vaults: completion spread should be much
	// tighter than 8x a single read's DRAM latency.
	var last sim.Cycle
	for i := 0; i < 8; i++ {
		ch.ReadEvent(uint64(i*addr.BlockBytes), sim.Call(func() { done++; last = k.Now() }))
	}
	k.Run()
	if done != 8 {
		t.Fatalf("done = %d, want 8", done)
	}
	if last > 400 {
		t.Fatalf("parallel reads finished at %d; vault parallelism broken", last)
	}
}

func TestOffchipBytesTotal(t *testing.T) {
	k, ch, _ := newTestChain()
	ch.ReadEvent(0, sim.Cont{})
	ch.WriteEvent(64, sim.Cont{})
	k.Run()
	if got := ch.OffchipBytes(); got != 16+80+80+16 {
		t.Fatalf("OffchipBytes = %d, want 192", got)
	}
}
