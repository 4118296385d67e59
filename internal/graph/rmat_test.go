package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
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
	// The table classifier agrees with the three-threshold test at every
	// bucket edge, one below and one above, and on both sides of the
	// redraw threshold, whether or not the bit Int63 drops is set.
	xs := []uint64{rmatTOne - 1, rmatTOne, 1<<63 - 1}
	for b := uint64(0); b <= 256; b++ {
		edge := b << rmatBucketShift
		xs = append(xs, edge-1, edge, edge+1)
	}
	for _, x := range xs {
		if x >= 1<<63 {
			continue
		}
		for _, y := range []uint64{x, x | 1<<63} {
			// One level on two vertices: the endpoints are q's two bits.
			var src, dst [1]int32
			redraw := classify(src[:], dst[:], []uint64{y}, 1, 2)
			q := uint64(src[0]<<1 | dst[0])
			if q != quadrant(x) || redraw != (atLeast(x, rmatTOne) == 1) {
				t.Errorf("draw %#x: table gives quadrant %d, redraw %v; thresholds give %d, %d",
					y, q, redraw, quadrant(x), atLeast(x, rmatTOne))
			}
		}
	}
	mixed := 0
	for _, q := range rmatTable {
		if q == rmatMixed {
			mixed++
		}
	}
	if mixed != 4 || rmatTable[255] != rmatMixed {
		t.Errorf("%d mixed buckets, want the three straddling a threshold and the top one", mixed)
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

// TestRMATGoldenWorkers holds the golden digests at several worker
// counts, three of them giving shares of uneven length: each share
// starts from the stream's state at its first draw, so the graph does
// not depend on how the edges are shared out.
func TestRMATGoldenWorkers(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			TestRMATGolden(t)
		})
	}
}

// TestLagFibMatchesSource checks the block stream against
// rand.NewSource's own Uint64, in blocks of assorted sizes on both sides
// of the two lags.
func TestLagFibMatchesSource(t *testing.T) {
	seeds := []int64{0, -1, -1 << 40, 42}
	for _, d := range Figure2Graphs {
		seeds = append(seeds, d.Seed)
	}
	for _, d := range Table3Graphs {
		seeds = append(seeds, d.Seed, d.Seed+131)
	}
	blocks := []int{1, 272, 273, 274, 333, 606, 607, 608, 1000, 4096, 19 * rmatBlockEdges}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		stream := newLagFib(seed)
		buf := make([]uint64, 19*rmatBlockEdges)
		for drawn, i := 0, 0; drawn < 1<<20; i++ {
			b := buf[:blocks[i%len(blocks)]]
			stream.fill(b)
			for j, y := range b {
				if want := ref.Uint64(); y != want {
					t.Fatalf("seed %d: draw %d = %#x, source gives %#x", seed, drawn+j, y, want)
				}
			}
			drawn += len(b)
		}
	}
}

// plantedStream is a seed's stream with some draws replaced, so that
// tests can put draws at or above rmatTOne where they choose. It tracks
// its absolute position across fill and jump.
type plantedStream struct {
	lagFib
	next  int // index of the next draw
	plant map[int]uint64
}

func (p *plantedStream) fill(b []uint64) {
	p.lagFib.fill(b)
	for i := range b {
		if y, ok := p.plant[p.next+i]; ok {
			b[i] = y
		}
	}
	p.next += len(b)
}

func (p *plantedStream) jump(pos int) {
	p.lagFib.jump(pos)
	p.next += pos
}

// rmatReference is the generator's per-draw loop: each level takes the
// next Int63, redrawn while it is at least rmatTOne, and sets bit l of
// the endpoints.
func rmatReference(n, edges int, fill func([]uint64)) (src, dst []int32) {
	levels := 0
	for 1<<levels < n {
		levels++
	}
	next := func() uint64 {
		var y [1]uint64
		fill(y[:])
		return y[0] & int63Mask
	}
	src, dst = make([]int32, edges), make([]int32, edges)
	for i := range src {
		var s, d uint64
		for l := 0; l < levels; l++ {
			x := next()
			for x >= rmatTOne {
				x = next()
			}
			sb := atLeast(x, rmatTAB)
			s |= sb << l
			d |= (atLeast(x, rmatTA) ^ sb ^ atLeast(x, rmatTABC)) << l
		}
		src[i], dst[i] = int32(s%uint64(n)), int32(d%uint64(n))
	}
	return src, dst
}

// TestRMATRedraws drives the share generator with draws the redraw rule
// rejects: at and above rmatTOne, with and without the bit Int63 drops,
// alone and in runs, inside each of four shares, on the last and first
// draw of a share, and at the start of the stream. Each plan runs at 1
// to 4 shares against the per-draw loop.
func TestRMATRedraws(t *testing.T) {
	const n, levels, edges = 1000, 10, 12 * rmatBlockEdges // three blocks a share at 4 shares
	top := uint64(1<<63 - 1)
	// shareStart is the first draw of share i of w.
	shareStart := func(i, w int) int { return i * edges / w * levels }
	run := func(at int) map[int]uint64 { // a run longer than an edge's draws
		p := map[int]uint64{}
		for i := 0; i < 40; i++ {
			p[at+i] = top - uint64(i)
		}
		return p
	}
	plans := map[string]map[int]uint64{
		"none": nil,
		"stream start": {
			0: rmatTOne,
			1: top,
			7: 1<<63 | rmatTOne,
			8: 1<<63 | (rmatTOne - 1), // accepted: Int63 is below rmatTOne
		},
		"accepted only": {5: 1<<63 | (rmatTOne - 1), shareStart(2, 4) + 3: rmatTOne - 1},
		"share 1":       {shareStart(1, 4) + 2*rmatBlockEdges*levels + 5: rmatTOne + 100},
		"share 2 run":   run(shareStart(2, 4) + 777),
		"share 3":       {shareStart(3, 4) + 1: top, shareStart(3, 4) + 9000: rmatTOne},
		"last edge":     {edges*levels - 1: top},
		"boundaries": {
			shareStart(1, 4) - 1: top, shareStart(1, 4): top,
			shareStart(1, 3): rmatTOne, shareStart(2, 3) - 1: rmatTOne,
		},
		"half": {shareStart(1, 2): top},
		"everywhere": {
			3: top, shareStart(1, 4) + 50: top, shareStart(1, 2) - 1: top, shareStart(3, 4) + 2: top,
		},
	}
	for name, plant := range plans {
		wantSrc, wantDst := rmatReference(n, edges, (&plantedStream{lagFib: newLagFib(9), plant: plant}).fill)
		want := csrBySort(n, wantSrc, wantDst)
		for w := 1; w <= 4; w++ {
			g := rmat[plantedStream](n, edges, plantedStream{lagFib: newLagFib(9), plant: plant}, w)
			if !slices.Equal(g.Offsets, want.Offsets) || !slices.Equal(g.Edges, want.Edges) {
				t.Errorf("%s, %d shares: graph differs from the per-draw loop", name, w)
			}
		}
	}
	// Without plants the reference is the generator itself.
	src, dst := rmatReference(n, edges, (&plantedStream{lagFib: newLagFib(9)}).fill)
	g := RMAT(n, edges, 9)
	if want := csrBySort(n, src, dst); !slices.Equal(g.Offsets, want.Offsets) || !slices.Equal(g.Edges, want.Edges) {
		t.Error("RMAT differs from the per-draw loop")
	}
}

// TestLagFibJump checks jump(L) against the state fill reaches after L
// outputs: on both sides of the two lags, at a large odd L, and at the
// share starts of the graph the Table 2 machine builds, at 2 to 4 shares.
func TestLagFibJump(t *testing.T) {
	spec := fullMachineSpec()
	levels := bits.Len(uint(spec.Vertices - 1))
	jumps := []int{0, 1, 272, 273, 606, 607, 608, 1_000_003}
	for w := 2; w <= 4; w++ {
		for i := 1; i < w; i++ {
			jumps = append(jumps, i*spec.Edges/w*levels)
		}
	}
	slices.Sort(jumps)
	buf := make([]uint64, 1<<16)
	for _, seed := range []int64{0, 42, spec.Seed} {
		origin := newLagFib(seed)
		walked, at := origin, 0
		for _, l := range jumps {
			for at < l {
				k := min(len(buf), l-at)
				walked.fill(buf[:k])
				at += k
			}
			jumped := origin
			jumped.jump(l)
			if jumped != walked {
				t.Errorf("seed %d: jump(%d) differs from %d outputs of fill", seed, l, l)
			}
		}
	}
}

// csrBySort is FromEdgeList's reference: sort the (src, dst) pairs and
// read the CSR off them.
func csrBySort(n int, src, dst []int32) *Graph {
	pairs := make([][2]int32, len(src))
	for i := range src {
		pairs[i] = [2]int32{src[i], dst[i]}
	}
	slices.SortFunc(pairs, func(a, b [2]int32) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	g := &Graph{Offsets: make([]int32, n+1), Edges: make([]int32, len(pairs))}
	for i, p := range pairs {
		g.Offsets[p[0]+1]++
		g.Edges[i] = p[1]
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g
}

// TestFromEdgeListMatchesSort checks the counting-sort CSR against the
// sort-based reference: random edge lists with duplicates, self-loops
// and isolated vertices, the edge cases n=1 and m=0, and lists long
// enough to split across workers.
func TestFromEdgeListMatchesSort(t *testing.T) {
	check := func(n int, src, dst []int32) bool {
		want := csrBySort(n, src, dst)
		g, err := FromEdgeList(n, src, slices.Clone(dst))
		return err == nil && slices.Equal(g.Offsets, want.Offsets) && slices.Equal(g.Edges, want.Edges)
	}
	random := func(n, m int, r *rand.Rand) ([]int32, []int32) {
		src, dst := make([]int32, m), make([]int32, m)
		for i := range src {
			src[i], dst[i] = int32(r.Intn(n)), int32(r.Intn(n))
		}
		return src, dst
	}
	f := func(nSeed uint8, pairs []uint16) bool {
		n := 1 + int(nSeed)%70 // small n: duplicates and self-loops are common
		src, dst := make([]int32, len(pairs)), make([]int32, len(pairs))
		for i, p := range pairs {
			src[i], dst[i] = int32(int(p)%n), int32(int(p>>8)%n)
		}
		return check(n, src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if !check(1, nil, nil) || !check(5, nil, nil) || !check(1, []int32{0, 0}, []int32{0, 0}) {
		t.Fatal("edge case differs from the sort reference")
	}
	r := rand.New(rand.NewSource(1))
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{1, 1000, 200_000} {
				src, dst := random(n, 4*csrGrain+3, r)
				if !check(n, src, dst) {
					t.Errorf("GOMAXPROCS=%d, n=%d: %d edges differ from the sort reference", procs, n, 4*csrGrain+3)
				}
			}
		}()
	}
}

// TestRMATAllocsIndependentOfSize holds the multi-worker generator to a
// fixed set of allocations: the same count for a graph four times
// larger, so nothing is allocated per chunk or per edge. It counts the
// objects this package's code allocates, read from a full-rate memory
// profile, because the runtime's own allocations for goroutines and
// channel waits come and go with the state of its caches.
func TestRMATAllocsIndependentOfSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var counts []int64
	for _, scale := range []int{256, 64} {
		spec := Table3Graphs["large"].Scaled(scale)
		before := ownAllocs()
		RMAT(spec.Vertices, spec.Edges, spec.Seed)
		counts = append(counts, ownAllocs()-before)
	}
	if counts[0] != counts[1] || counts[0] == 0 {
		t.Fatalf("RMAT allocated %d objects at scale 256 and %d at scale 64; want the same", counts[0], counts[1])
	}
}

// ownAllocs returns how many objects the memory profile has seen this
// package's non-test code allocate: directly, or through make(chan) or
// math/rand.
func ownAllocs() int64 {
	runtime.GC() // the profile lags up to two cycles behind
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 512)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+512)
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		fr, more := frames.Next()
		for more && (fr.Function == "runtime.makechan" || strings.HasPrefix(fr.Function, "math/rand.")) {
			fr, more = frames.Next()
		}
		if strings.HasPrefix(fr.Function, "pimsim/internal/graph.") && !strings.HasSuffix(fr.File, "_test.go") {
			total += r.AllocObjects
		}
	}
	return total
}
