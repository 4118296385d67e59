package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for hand-built profiles.
type pb []byte

func (b *pb) key(field int, wire uint64) { *b = binary.AppendUvarint(*b, uint64(field)<<3|wire) }

func (b *pb) varint(field int, v uint64) {
	b.key(field, 0)
	*b = binary.AppendUvarint(*b, v)
}

func (b *pb) bytes(field int, data []byte) {
	b.key(field, 2)
	*b = binary.AppendUvarint(*b, uint64(len(data)))
	*b = append(*b, data...)
}

func (b *pb) packed(field int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytes(field, p)
}

func msg(build func(*pb)) []byte {
	var b pb
	build(&b)
	return b
}

// testProfile hand-builds a CPU profile with an inlined location, a
// runtime leaf under a simulator frame, a runtime-only stack, and both
// packed and unpacked repeated fields.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"pimsim/internal/cache.(*Hierarchy).Access", // 5
		"pimsim/internal/sim.(*Kernel).Run",         // 6
		"runtime.mallocgc",                          // 7
		"pimsim/internal/dram.(*Controller).pump",   // 8
		"runtime.gcBgMarkWorker",                    // 9
	}
	raw := msg(func(p *pb) {
		p.bytes(1, msg(func(v *pb) { v.varint(1, 1); v.varint(2, 2) }))
		p.bytes(1, msg(func(v *pb) { v.varint(1, 3); v.varint(2, 4) }))
		// Leaf first: cache, inlined into sim, in one location.
		p.bytes(2, msg(func(s *pb) { s.packed(1, 1); s.packed(2, 1, 10e6) }))
		// runtime.mallocgc called from dram: the dram frame owns it.
		p.bytes(2, msg(func(s *pb) { s.packed(1, 2, 3); s.packed(2, 2, 20e6) }))
		p.bytes(2, msg(func(s *pb) { s.packed(1, 4); s.packed(2, 1, 10e6) }))
		// Unpacked repeated fields.
		p.bytes(2, msg(func(s *pb) { s.varint(1, 3); s.varint(2, 1); s.varint(2, 10e6) }))
		p.bytes(3, msg(func(m *pb) { m.varint(1, 1); m.varint(2, 0x400000) })) // mapping: skipped
		line := func(fn uint64) []byte { return msg(func(l *pb) { l.varint(1, fn); l.varint(2, 42) }) }
		p.bytes(4, msg(func(l *pb) { l.varint(1, 1); l.bytes(4, line(1)); l.bytes(4, line(2)) }))
		for id, fn := range map[uint64]uint64{2: 3, 3: 4, 4: 5} {
			p.bytes(4, msg(func(l *pb) { l.varint(1, id); l.varint(3, 0x401000); l.bytes(4, line(fn)) }))
		}
		for id := uint64(1); id <= 5; id++ {
			p.bytes(5, msg(func(f *pb) { f.varint(1, id); f.varint(2, id+4) }))
		}
		for _, s := range strs {
			p.bytes(6, []byte(s))
		}
		p.varint(10, 1e9) // duration_nanos: skipped
	})
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	p, err := parseProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	got := p.layerNanos()
	want := map[string]int64{"cache": 10e6, "dram": 30e6, "runtime": 10e6}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("%s = %d ns, want %d", l, got[l], ns)
		}
	}
	if ns := p.nanosUnder(func(fn string) bool { return fn == "pimsim/internal/sim.(*Kernel).Run" }); ns != 10e6 {
		t.Errorf("nanos under sim.(*Kernel).Run = %d, want 10e6 (the inlined caller frame)", ns)
	}
}

func TestProfileRejectsTruncation(t *testing.T) {
	data := testProfile(t)
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 17} {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(raw.Bytes()[:raw.Len()-cut])
		zw.Close()
		if _, err := parseProfile(buf.Bytes()); err == nil {
			t.Errorf("cut %d bytes: no error", cut)
		}
	}
}

// TestProfileFromRuntime decodes a profile the Go runtime wrote.
func TestProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		calibrate()
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 || p.layerNanos()["runtime"] == 0 {
		t.Fatalf("no samples attributed: %d stacks", len(p.stacks))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for _, c := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
}
