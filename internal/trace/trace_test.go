package trace

import (
	"bytes"
	"context"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/workloads"
)

func TestRoundTripAllOpKinds(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// All seven record kinds in one stream, including a PEI carrying the
	// maximum (255-byte) input payload the u8 length field allows.
	maxInput := make([]byte, 255)
	for i := range maxInput {
		maxInput[i] = byte(i * 7)
	}
	barrier := cpu.NewBarrier(2)
	ops := []cpu.Op{
		{Kind: cpu.OpCompute, Cycles: 42},
		{Kind: cpu.OpLoad, Addr: 0x1234},
		{Kind: cpu.OpStore, Addr: 0x5678},
		{Kind: cpu.OpPEI, PEI: &pim.PEI{Op: pim.OpMin64, Target: 0x9ABC, Input: pim.U64Input(7)}},
		{Kind: cpu.OpPEI, PEI: &pim.PEI{Op: pim.OpFloatAdd, Target: 0xDEF0, Input: maxInput}},
		{Kind: cpu.OpFence},
		{Kind: cpu.OpBarrier, Barrier: barrier},
		{Kind: cpu.OpDrain},
	}
	for _, op := range ops {
		w.Record(0, op)
	}
	w.Record(1, cpu.Op{Kind: cpu.OpBarrier, Barrier: barrier})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.StoreSize != 1<<20 {
		t.Fatalf("store size %d", tr.StoreSize)
	}
	if len(tr.PerThread[0]) != 8 || len(tr.PerThread[1]) != 1 {
		t.Fatalf("per-thread counts %d/%d", len(tr.PerThread[0]), len(tr.PerThread[1]))
	}
	got := tr.PerThread[0]
	for i, op := range ops {
		if got[i].Kind != op.Kind {
			t.Fatalf("op %d kind %d, want %d", i, got[i].Kind, op.Kind)
		}
	}
	if got[0].Cycles != 42 || got[1].Addr != 0x1234 || got[2].Addr != 0x5678 {
		t.Fatalf("scalar ops wrong: %+v", got[:3])
	}
	p := got[3].PEI
	if p.Op != pim.OpMin64 || p.Target != 0x9ABC || len(p.Input) != 8 {
		t.Fatalf("PEI wrong: %+v", p)
	}
	big := got[4].PEI
	if big.Op != pim.OpFloatAdd || big.Target != 0xDEF0 || !bytes.Equal(big.Input, maxInput) {
		t.Fatalf("max-payload PEI not preserved: op %v target %#x len %d", big.Op, big.Target, len(big.Input))
	}
	if got[6].Barrier == nil || got[6].Barrier != tr.PerThread[1][0].Barrier {
		t.Fatal("barrier identity not preserved across threads")
	}
}

// TestConfigDigestHeader pins the v2 header: a digest survives the
// round trip, a digest-less writer emits a byte-identical v1 header
// (old tooling keeps reading it), and records after a v2 header parse
// exactly as they do after a v1 header.
func TestConfigDigestHeader(t *testing.T) {
	const digest = "0123456789abcdef0123456789abcdef"
	write := func(d string) *bytes.Buffer {
		var buf bytes.Buffer
		w, err := NewWriterDigest(&buf, 1, 4096, d)
		if err != nil {
			t.Fatal(err)
		}
		w.Record(0, cpu.Op{Kind: cpu.OpLoad, Addr: 0xBEEF})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	v2 := write(digest)
	if !bytes.HasPrefix(v2.Bytes(), magicV2[:]) {
		t.Fatal("digest-carrying trace did not use the v2 magic")
	}
	tr, err := Read(v2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConfigDigest != digest {
		t.Fatalf("digest %q, want %q", tr.ConfigDigest, digest)
	}
	if len(tr.PerThread[0]) != 1 || tr.PerThread[0][0].Addr != 0xBEEF {
		t.Fatalf("records after v2 header wrong: %+v", tr.PerThread[0])
	}

	v1 := write("")
	if !bytes.HasPrefix(v1.Bytes(), magicV1[:]) {
		t.Fatal("digest-less trace did not keep the v1 magic")
	}
	var legacy bytes.Buffer
	lw, err := NewWriter(&legacy, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	lw.Record(0, cpu.Op{Kind: cpu.OpLoad, Addr: 0xBEEF})
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1.Bytes(), legacy.Bytes()) {
		t.Fatal("NewWriterDigest with empty digest diverged from NewWriter bytes")
	}
	tr1, err := Read(v1)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.ConfigDigest != "" {
		t.Fatalf("v1 trace grew a digest %q", tr1.ConfigDigest)
	}
}

func TestReadTruncatedFile(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(0, cpu.Op{Kind: cpu.OpCompute, Cycles: 10})
	w.Record(0, cpu.Op{Kind: cpu.OpPEI, PEI: &pim.PEI{Op: pim.OpInc64, Target: 64, Input: make([]byte, 255)}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Every strict prefix that cuts into a record (header, record
	// preamble, payload, or the 255-byte PEI input) must error rather
	// than silently yield a short trace. Record boundaries — where a
	// truncated file is indistinguishable from a complete one — are the
	// only prefixes allowed to parse.
	recordStarts := map[int]bool{len(full): true}
	const headerLen = 8 + 12
	computeEnd := headerLen + 6
	recordStarts[headerLen] = true
	recordStarts[computeEnd] = true
	for cut := 0; cut < len(full); cut++ {
		_, err := Read(bytes.NewReader(full[:cut]))
		if recordStarts[cut] {
			if err != nil {
				t.Fatalf("cut at record boundary %d should parse: %v", cut, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncation at byte %d of %d not detected", cut, len(full))
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("NOTATRACE....")); err == nil {
		t.Fatal("expected error")
	}
}

func TestRecordReplayWorkload(t *testing.T) {
	cfg := config.Scaled()
	p := workloads.Params{Threads: 2, Size: workloads.Small, Scale: 1024}

	// Live run, recording every op.
	w := workloads.MustNew("bfs", p)
	m := machine.MustNew(cfg, pim.LocalityAware)
	live := w.Streams(m)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, len(live), 0)
	if err != nil {
		t.Fatal(err)
	}
	recStreams := make([]cpu.Stream, len(live))
	for i, s := range live {
		recStreams[i] = &RecordingStream{Inner: s, Writer: tw, Thread: i}
	}
	liveRes, err := m.RunContext(context.Background(), recStreams)
	if err != nil {
		t.Fatal(err)
	}
	// Patch the header's store size by rewriting (simpler: new writer
	// knew 0; the replay machine sizes its store from the live machine).
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ops := range tr.PerThread {
		total += len(ops)
	}
	if int64(total) != liveRes.Retired {
		t.Fatalf("trace has %d ops, live retired %d", total, liveRes.Retired)
	}

	// Replay onto a fresh machine: identical cycle count (determinism
	// across generation and replay), because the op sequence is the
	// machine's entire input.
	m2 := machine.MustNew(cfg, pim.LocalityAware)
	m2.Store.Alloc(int(m.Store.Size()), 64) // back the recorded addresses
	replayRes, err := m2.RunContext(context.Background(), tr.Streams())
	if err != nil {
		t.Fatal(err)
	}
	if replayRes.Cycles != liveRes.Cycles {
		t.Fatalf("replay %d cycles, live %d", replayRes.Cycles, liveRes.Cycles)
	}
	if replayRes.PEIMem != liveRes.PEIMem {
		t.Fatalf("replay steering differs: %d vs %d", replayRes.PEIMem, liveRes.PEIMem)
	}
}

func TestReplayTwiceFromOneTrace(t *testing.T) {
	cfg := config.Scaled()
	p := workloads.Params{Threads: 2, Size: workloads.Small, Scale: 2048}
	w := workloads.MustNew("atf", p)
	m := machine.MustNew(cfg, pim.HostOnly)
	live := w.Streams(m)
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, len(live), 0)
	rec := make([]cpu.Stream, len(live))
	for i, s := range live {
		rec[i] = &RecordingStream{Inner: s, Writer: tw, Thread: i}
	}
	if _, err := m.RunContext(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run := func() int64 {
		m2 := machine.MustNew(cfg, pim.HostOnly)
		m2.Store.Alloc(int(m.Store.Size()), 64)
		res, err := m2.RunContext(context.Background(), tr.Streams())
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Cycles)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("re-replay differs: %d vs %d", a, b)
	}
}

func TestReplayAcrossModes(t *testing.T) {
	// A trace recorded once can drive any machine mode.
	cfg := config.Scaled()
	p := workloads.Params{Threads: 2, Size: workloads.Small, Scale: 2048}
	w := workloads.MustNew("atf", p)
	m := machine.MustNew(cfg, pim.HostOnly)
	live := w.Streams(m)
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, len(live), 0)
	rec := make([]cpu.Stream, len(live))
	for i, s := range live {
		rec[i] = &RecordingStream{Inner: s, Writer: tw, Thread: i}
	}
	if _, err := m.RunContext(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	tr, _ := Read(&buf)
	for _, mode := range []pim.Mode{pim.HostOnly, pim.PIMOnly, pim.LocalityAware} {
		m2 := machine.MustNew(cfg, mode)
		m2.Store.Alloc(int(m.Store.Size()), 64)
		res, err := m2.RunContext(context.Background(), tr.Streams())
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Cycles <= 0 {
			t.Fatalf("%v: no progress", mode)
		}
	}
}
