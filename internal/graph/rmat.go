package graph

import (
	"math/bits"
	"math/rand"
	"runtime"
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

// draw fills p with the next len(p) outputs of fill whose Int63 is below
// rmatTOne, dropping the others exactly as Float64 redraws them. The
// values stay as fill produced them; classify masks them to Int63.
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

// classify turns each edge's levels draws into its endpoints. Draw l of
// an edge picks quadrant q = a, b, c or d (0..3) for bit l of (src, dst):
// q's high bit is the src bit and its low bit the dst bit. The quadrants
// are shifted into z from the last draw down, two bits each, and then
// split into the two endpoints, which wrap modulo n.
func classify(src, dst []int32, draws []uint64, levels, n int) {
	for e := range src {
		z := quadrants(draws[:levels])
		draws = draws[levels:]
		src[e] = int32(wrap(int(evenBits(z>>1)), n))
		dst[e] = int32(wrap(int(evenBits(z)), n))
	}
}

// quadrants returns one edge's quadrants, ds[0]'s in the low two bits.
func quadrants(ds []uint64) uint64 {
	ta, tab, tabc := rmatTA, rmatTAB, rmatTABC
	var z uint64
	for l := len(ds) - 1; l >= 0; l-- {
		x := ds[l] & int63Mask
		z = z<<2 | atLeast(x, ta) + atLeast(x, tab) + atLeast(x, tabc)
	}
	return z
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

// rmatChunkEdges is how many edges one chunk of draws covers: at 23
// levels (the unscaled Table 3 large graph) a chunk's draws take 736 KiB.
const rmatChunkEdges = 1 << 12

// rmatChunk is one chunk's draws and the edge indices [lo, hi) they cover.
type rmatChunk struct {
	lo, hi int
	draws  []uint64
}

// rmatEdges returns the endpoints of edges R-MAT edges on n vertices,
// drawn from the raw stream fill. The stream is consumed in fixed chunks of
// rmatChunkEdges edges, in order, on the calling goroutine; with more
// than one worker the chunks are classified concurrently, each into its
// own edge indices, so the result cannot depend on scheduling. With one
// worker it starts no goroutine and allocates one chunk buffer.
func rmatEdges(n, edges int, fill func([]uint64)) (src, dst []int32) {
	levels := bits.Len(uint(n - 1)) // least levels with 1<<levels >= n
	src = make([]int32, edges)
	dst = make([]int32, edges)
	chunks := (edges + rmatChunkEdges - 1) / rmatChunkEdges
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers <= 1 {
		buf := make([]uint64, min(edges, rmatChunkEdges)*levels)
		for lo := 0; lo < edges; lo += rmatChunkEdges {
			hi := min(edges, lo+rmatChunkEdges)
			b := buf[:(hi-lo)*levels]
			draw(b, fill)
			classify(src[lo:hi], dst[lo:hi], b, levels, n)
		}
		return src, dst
	}
	// Two buffers per worker let the stream run a chunk ahead of each
	// worker; neither channel ever holds more than all the buffers.
	bufs := 2 * workers
	jobs := make(chan rmatChunk, bufs)
	free := make(chan []uint64, bufs)
	for range bufs {
		free <- make([]uint64, rmatChunkEdges*levels)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go classifyChunks(jobs, free, src, dst, levels, n, &wg)
	}
	for lo := 0; lo < edges; lo += rmatChunkEdges {
		hi := min(edges, lo+rmatChunkEdges)
		b := (<-free)[:(hi-lo)*levels]
		draw(b, fill)
		jobs <- rmatChunk{lo: lo, hi: hi, draws: b}
	}
	close(jobs)
	wg.Wait()
	return src, dst
}

// classifyChunks is one rmatEdges worker: it classifies chunks until
// jobs closes, handing each buffer back through free.
func classifyChunks(jobs <-chan rmatChunk, free chan<- []uint64, src, dst []int32, levels, n int, wg *sync.WaitGroup) {
	defer wg.Done()
	for c := range jobs {
		classify(src[c.lo:c.hi], dst[c.lo:c.hi], c.draws, levels, n)
		free <- c.draws[:cap(c.draws)]
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
	if n <= 0 || edges < 0 {
		panic("graph: bad RMAT parameters")
	}
	stream := newLagFib(seed)
	src, dst := rmatEdges(n, edges, stream.fill)
	return csr(n, src, dst)
}
