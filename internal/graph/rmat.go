package graph

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// The Graph500 R-MAT quadrant probabilities; d = 1-a-b-c = 0.05.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// RMAT draws each quadrant from a 63-bit Int63 value x exactly as
// rand.Rand.Float64 would turn it into f = float64(x)/(1<<63) and compare
// f with a, a+b and a+b+c. Since f is monotone in x, each comparison
// f < p is the integer test x < threshold(p), so the generator skips the
// float conversion and the three-way branch yet stays bit-identical to
// the float formulation (DESIGN.md §3; pinned by TestRMATGolden).
var (
	rmatTA   = threshold(rmatA)
	rmatTAB  = threshold(rmatA + rmatB)
	rmatTABC = threshold(rmatA + rmatB + rmatC)
	// Float64 redraws when f rounds up to 1, i.e. when x >= rmatTOne.
	rmatTOne = threshold(1)
)

// int63Mask turns a Uint64 output of math/rand's source into its Int63.
const int63Mask = 1<<63 - 1

// below is Float64's comparison of the draw x against p.
func below(x uint64, p float64) bool { return float64(x)/(1<<63) < p }

// threshold returns the least x in [0, 1<<63] with !below(x, p), found
// by binary search on the float predicate itself: x < threshold(p) holds
// exactly when below(x, p) does.
func threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if below(mid, p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// atLeast is 1 if x >= t and 0 otherwise, without a branch. It needs
// 0 < t <= 1<<63 and x < 1<<63: t-1-x then wraps past 1<<63 exactly
// when x >= t.
func atLeast(x, t uint64) uint64 { return (t - 1 - x) >> 63 }

// quadrant is the three-threshold test: the quadrant of the Int63 x,
// 0..3 for a..d.
func quadrant(x uint64) uint64 {
	return atLeast(x, rmatTA) + atLeast(x, rmatTAB) + atLeast(x, rmatTABC)
}

// A draw's bucket is the top 8 bits of its Int63, bits 55..62 of the
// raw output.
const rmatBucketShift = 55

// rmatMixed marks a bucket whose draws do not all share one quadrant:
// the three buckets that straddle a threshold, and the top bucket,
// which holds every draw Float64 redraws.
const rmatMixed = 4

// rmatTable is each bucket's quadrant, or rmatMixed. quadrant is
// monotone, so a bucket whose two ends share a quadrant is uniform.
var rmatTable = func() (t [256]uint8) {
	for b := range t {
		lo := uint64(b) << rmatBucketShift
		hi := lo + 1<<rmatBucketShift - 1
		if q := quadrant(lo); q == quadrant(hi) && hi < rmatTOne {
			t[b] = uint8(q)
		} else {
			t[b] = rmatMixed
		}
	}
	return t
}()

// mixedDraw is the quadrant of the raw output y, from the three-threshold
// test, and 1 if Float64 would redraw y (0 otherwise). classify calls it
// for draws in mixed buckets only, about one in 64. It stays out of
// line: inlined, it left classify's loop short of registers, and the
// loop ran 20% slower.
//
//go:noinline
func mixedDraw(y uint64) (q, redraw uint64) {
	x := y & int63Mask
	return quadrant(x), atLeast(x, rmatTOne)
}

// classify turns each edge's levels draws into its endpoints. Draw l of
// an edge picks quadrant q = a, b, c or d (0..3) for bit l of (src, dst):
// q's high bit is the src bit and its low bit the dst bit. The table
// gives q for a draw in a uniform bucket; mixedDraw gives it for the
// rest. The quadrants are shifted into z from the last draw down, two bits each, and then
// split into the two endpoints, which wrap modulo n.
//
// classify reports whether any draw's Int63 is at least rmatTOne, which
// Float64 would have redrawn: the endpoints from that edge on are wrong.
func classify(src, dst []int32, draws []uint64, levels, n int) (redraw bool) {
	var bad uint64
	for e := range src {
		ds := draws[e*levels : e*levels+levels]
		var z uint64
		for l := len(ds) - 1; l >= 0; l-- {
			q := uint64(rmatTable[uint8(ds[l]>>rmatBucketShift)])
			if q == rmatMixed {
				var r uint64
				q, r = mixedDraw(ds[l])
				bad |= r
			}
			z = z<<2 | q
		}
		src[e] = int32(wrap(int(evenBits(z>>1)), n))
		dst[e] = int32(wrap(int(evenBits(z)), n))
	}
	return bad != 0
}

// evenBits packs bits 0, 2, 4, ... of z into its low 32 bits.
func evenBits(z uint64) uint64 {
	z &= 0x5555555555555555
	z = (z | z>>1) & 0x3333333333333333
	z = (z | z>>2) & 0x0f0f0f0f0f0f0f0f
	z = (z | z>>4) & 0x00ff00ff00ff00ff
	z = (z | z>>8) & 0x0000ffff0000ffff
	return (z | z>>16) & 0x00000000ffffffff
}

// wrap is v % n for 0 <= v < 2n, without a division or a branch.
func wrap(v, n int) int { return v - n&((n-1-v)>>63) }

// The lags of math/rand's additive lagged-Fibonacci source: its outputs
// obey y[k] = y[k-lagLong] + y[k-lagShort] (mod 2^64).
const lagLong, lagShort = 607, 273

// lagFib is the output stream of rand.NewSource(seed), computed from
// that recurrence a block at a time instead of one interface call per
// draw. It holds the lagLong latest outputs, oldest first.
type lagFib [lagLong]uint64

// newLagFib seeds the recurrence with the first lagLong outputs of
// rand.NewSource(seed) and runs it backwards over them, so the state is
// the lagLong words that precede the stream and fill starts at output 0.
func newLagFib(seed int64) lagFib {
	src := rand.NewSource(seed).(rand.Source64)
	var y [lagLong]uint64
	for i := range y {
		y[i] = src.Uint64()
	}
	// r[j] is y[j-lagLong], so y[k] = r[k] + y[k-lagShort]. Below
	// lagShort, y[k-lagShort] is r[k+lagLong-lagShort], which k, counting
	// down, has already solved.
	var r lagFib
	for k := lagLong - 1; k >= 0; k-- {
		if k >= lagShort {
			r[k] = y[k] - y[k-lagShort]
		} else {
			r[k] = y[k] - r[k+lagLong-lagShort]
		}
	}
	return r
}

// fill overwrites p with the next len(p) outputs of the stream.
func (r *lagFib) fill(p []uint64) {
	i := 0
	for ; i < len(p) && i < lagShort; i++ {
		p[i] = r[i] + r[i+lagLong-lagShort]
	}
	for ; i < len(p) && i < lagLong; i++ {
		p[i] = r[i] + p[i-lagShort]
	}
	if len(p) > lagLong {
		out := p[lagLong:]
		long, short := p[:len(out)], p[lagLong-lagShort:][:len(out)]
		for j := range out {
			out[j] = long[j] + short[j]
		}
	}
	if len(p) >= lagLong {
		copy(r[:], p[len(p)-lagLong:])
	} else {
		copy(r[:], r[len(p):])
		copy(r[lagLong-len(p):], p)
	}
}

// jump advances the stream by pos outputs without producing them. If
// x^pos = sum c[j] x^j modulo the recurrence's characteristic polynomial
// x^607 - x^334 - 1, every output is the same combination of the
// outputs pos earlier: y[t+pos] = sum c[j] y[t+j]. The new state's word
// i is that dot product over the current state and the lagLong-1
// outputs after it. It costs O(lagLong² log pos), a few milliseconds at
// pos = 2^26.
func (r *lagFib) jump(pos int) {
	if pos == 0 {
		return
	}
	c := xPow(pos)
	var y [2*lagLong - 1]uint64
	copy(y[:], r[:])
	next := *r
	next.fill(y[lagLong:])
	for i := range r {
		var sum uint64
		for j, yj := range y[i : i+lagLong] {
			sum += c[j] * yj
		}
		r[i] = sum
	}
}

// poly is a polynomial over Z/2^64 of degree below lagLong, low
// coefficient first: a residue modulo x^607 - x^334 - 1.
type poly [lagLong]uint64

// xPow returns x^e modulo x^607 - x^334 - 1, by squaring from the top
// bit of e down.
func xPow(e int) poly {
	var c poly
	c[0] = 1
	for b := bits.Len(uint(e)) - 1; b >= 0; b-- {
		c.square()
		if e>>b&1 == 1 {
			c.timesX()
		}
	}
	return c
}

// square sets c to c² modulo the characteristic polynomial. x^k for
// k >= 607 folds to x^(k-607) + x^(k-273); folding from the top term
// down, each fold lands on terms not yet folded.
func (c *poly) square() {
	var p [2*lagLong - 1]uint64
	for i, ci := range c {
		if ci == 0 {
			continue
		}
		p[2*i] += ci * ci
		d, row := 2*ci, p[2*i+1:i+lagLong]
		for j, cj := range c[i+1:] {
			row[j] += d * cj
		}
	}
	for k := len(p) - 1; k >= lagLong; k-- {
		p[k-lagLong] += p[k]
		p[k-lagShort] += p[k]
	}
	copy(c[:], p[:lagLong])
}

// timesX sets c to c·x modulo the characteristic polynomial.
func (c *poly) timesX() {
	top := c[lagLong-1]
	copy(c[1:], c[:lagLong-1])
	c[0] = top
	c[lagLong-lagShort] += top
}

// draw fills p with the next len(p) outputs of fill whose Int63 is below
// rmatTOne, dropping the others exactly as Float64 redraws them.
func draw(p []uint64, fill func([]uint64)) {
	for len(p) > 0 {
		fill(p)
		k := 0
		for k < len(p) && p[k]&int63Mask < rmatTOne {
			k++
		}
		for _, y := range p[k:] {
			if y&int63Mask < rmatTOne {
				p[k] = y
				k++
			}
		}
		p = p[k:]
	}
}

// A drawStream is a raw draw stream that a share can start anywhere:
// lagFib, or a test's stream with planted draws.
type drawStream[S any] interface {
	*S
	fill(p []uint64)
	jump(pos int)
}

// rmatBlockEdges is how many edges one fill covers: at 19 levels (the
// Table 3 large graph at scale 16) a block's draws take 152 KiB, so they
// are still cached when classify reads them back.
const rmatBlockEdges = 1 << 10

// rmatBuild is one RMAT call's state. Its edges are cut into the
// builder's producers' parts, the shares: share i generates edges
// b.part(i) from the stream's state at its first draw, reached by jump,
// and appends them to the builder's lists. Every share starts where it
// would if no earlier draw were redrawn. That holds unless some share
// meets a redraw, and then redo takes over from the first such share.
type rmatBuild[S any, P drawStream[S]] struct {
	csrBuilder
	origin S // the stream before output 0
	shares []rmatShare[S]
	blocks []uint64 // each share's draw block, block draws long
	block  int
}

// rmatShare is one share's stream, whether it met a redraw, and the
// endpoints of its current block.
type rmatShare[S any] struct {
	stream   S
	redraw   bool
	src, dst [rmatBlockEdges]int32
}

// rmat generates the R-MAT graph on n vertices from origin's draws, in
// w shares.
func rmat[S any, P drawStream[S]](n, edges int, origin S, w int) *Graph {
	b := rmatBuild[S, P]{
		csrBuilder: newCSRBuilder(n, edges, 1, w, make([]int32, edges)),
		origin:     origin,
		shares:     make([]rmatShare[S], w),
	}
	b.block = min(rmatBlockEdges, (edges+w-1)/w) * int(b.levels)
	b.blocks = make([]uint64, w*b.block)
	if w == 1 {
		b.share(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(w)
		for i := range w {
			go b.runShare(i, &wg)
		}
		wg.Wait()
	}
	for i := range b.shares {
		if b.shares[i].redraw {
			b.redo(i)
			break
		}
	}
	return b.finish()
}

// start sets share i's stream to the origin's state at the share's
// first draw and returns the stream, the share's edges and its block.
func (b rmatBuild[S, P]) start(i int) (s P, lo, hi int, buf []uint64) {
	lo, hi = b.part(i)
	s = &b.shares[i].stream
	*s = b.origin
	s.jump(lo * int(b.levels))
	return s, lo, hi, b.blocks[i*b.block : (i+1)*b.block]
}

// share generates share i block by block and appends its edges. It stops
// at a block with a redraw and flags the share.
func (b rmatBuild[S, P]) share(i int) {
	s, lo, hi, buf := b.start(i)
	sh := &b.shares[i]
	kw := b.writer(i)
	for lo < hi {
		e := min(hi, lo+rmatBlockEdges)
		d := buf[:(e-lo)*int(b.levels)]
		s.fill(d)
		src, dst := sh.src[:e-lo], sh.dst[:e-lo]
		if classify(src, dst, d, int(b.levels), b.n) {
			sh.redraw = true
			return
		}
		kw.putAll(src, dst)
		lo = e
	}
}

// runShare is one share's goroutine. Like the builder's runPart, it gets
// its arguments from the go statement, not through a closure.
func (b rmatBuild[S, P]) runShare(i int, wg *sync.WaitGroup) {
	defer wg.Done()
	b.share(i)
}

// redo regenerates every edge from share k's start on the sequential
// path: draws in stream order, each one Float64 redraws dropped. No
// earlier share met a redraw, so share k starts where it would. Shares
// k on drop their keys, and each edge goes to the share whose part holds
// it.
func (b rmatBuild[S, P]) redo(k int) {
	s, lo, _, buf := b.start(k)
	sh := &b.shares[k]
	for i := k; i < b.w; i++ {
		kw := b.writer(i)
		for _, hi := b.part(i); lo < hi; {
			e := min(hi, lo+rmatBlockEdges)
			d := buf[:(e-lo)*int(b.levels)]
			draw(d, s.fill)
			src, dst := sh.src[:e-lo], sh.dst[:e-lo]
			classify(src, dst, d, int(b.levels), b.n)
			kw.putAll(src, dst)
			lo = e
		}
	}
}

// RMAT generates a power-law graph with the Graph500 R-MAT parameters
// (a=0.57, b=0.19, c=0.19, d=0.05), the standard synthetic stand-in for
// social-network graphs. n is rounded up to a power of two internally
// for quadrant recursion, then vertices are taken modulo n so the
// requested count is exact. Deterministic for a given seed: each level
// of each edge consumes one rand.Rand.Float64 draw from
// rand.NewSource(seed), and the output is pinned bit for bit. It runs
// on up to GOMAXPROCS goroutines.
func RMAT(n, edges int, seed int64) *Graph {
	if n <= 0 || n > math.MaxInt32+1 || edges < 0 || edges > math.MaxInt32 {
		panic("graph: bad RMAT parameters")
	}
	return rmat[lagFib](n, edges, newLagFib(seed), csrWorkers(edges))
}
