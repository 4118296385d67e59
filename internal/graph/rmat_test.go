package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// graphDigest is SHA-256 over the little-endian Offsets then Edges.
func graphDigest(g *Graph) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for _, o := range g.Offsets {
		if len(buf)+8 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	for _, e := range g.Edges {
		if len(buf)+4 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// fullMachineSpec is the graph the Table 2 machine builds for the large
// input at scale 16 and seed 1.
func fullMachineSpec() DatasetSpec {
	spec := Table3Graphs["large"]
	spec.Seed += 131
	return spec.Scaled(16)
}

// TestRMATGolden pins the generator's output bit for bit. Every graph
// workload, golden table and snapshot key depends on it, so a digest
// change here means the generator changed, not just got faster.
func TestRMATGolden(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Graph
		want string
	}{
		{"table3-small/256", func() *Graph { return Table3Graphs["small"].Scaled(256).Generate() },
			"2b43c498315f59ec47186c4413e2f570f78df95c2acc63f6940399ed6c0152da"},
		{"table3-large/16+131", func() *Graph { return fullMachineSpec().Generate() },
			"b7a84b98eef0fc79c467b88528b66016ef389a9f21be70d44b80012abfa1f70e"},
		{"p2p-Gnutella31", func() *Graph { return Figure2Graphs[0].Generate() },
			"5d65151dc2e606f4ad102dda0fb195d4356b417c0d150e1de9a0c1674b0631e9"},
		{"table3-small/64-sym", func() *Graph { return Table3Graphs["small"].Scaled(64).Generate().Symmetrize() },
			"126b81692ff50a62577b6ca3c5696b819e93ca2f84ace634973ed5b662dc95c1"},
		{"single-vertex", func() *Graph { return RMAT(1, 8, 1) },
			"feeae4a5a62b2171893628822dd1a1febeddcbf1e82540e1246a0d89f6e063b6"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := graphDigest(c.gen()); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestRMATThresholds checks the integer quadrant tests against the float
// comparison rand.Rand.Float64 performs, on both sides of each threshold.
func TestRMATThresholds(t *testing.T) {
	float := func(x uint64) float64 { return float64(int64(x)) / (1 << 63) }
	for _, c := range []struct {
		name string
		t    uint64
		p    float64
	}{
		{"a", rmatTA, rmatA},
		{"a+b", rmatTAB, rmatA + rmatB},
		{"a+b+c", rmatTABC, rmatA + rmatB + rmatC},
		{"redraw", rmatTOne, 1},
	} {
		for _, x := range []uint64{c.t - 2, c.t - 1, c.t, c.t + 1} {
			if x >= 1<<63 {
				continue
			}
			if got, want := atLeast(x, c.t) == 0, float(x) < c.p; got != want {
				t.Errorf("%s: x=%d: integer test %v, float test %v", c.name, x, got, want)
			}
		}
	}
	// Float64 returns 1 (and redraws) only for the top 512 Int63 values,
	// which round up to 1<<63.
	if rmatTOne != 1<<63-512 || float(rmatTOne) != 1 || float(1<<63-1) != 1 {
		t.Errorf("redraw threshold %d: Float64 would not round it up to 1", rmatTOne)
	}
}

// TestRMATAllocs guards the generator's allocations: a constant few per
// call (source, edge arrays, CSR arrays), independent of the graph size.
func TestRMATAllocs(t *testing.T) {
	spec := Table3Graphs["large"].Scaled(256)
	allocs := testing.AllocsPerRun(3, func() { RMAT(spec.Vertices, spec.Edges, spec.Seed) })
	if allocs > 8 {
		t.Fatalf("RMAT(%d, %d) made %.0f allocations per call, budget 8", spec.Vertices, spec.Edges, allocs)
	}
}

var benchGraph *Graph

// BenchmarkRMAT times the graph the Table 2 machine builds for the large
// input at scale 16.
func BenchmarkRMAT(b *testing.B) {
	spec := fullMachineSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph = RMAT(spec.Vertices, spec.Edges, spec.Seed)
	}
}
