package workloads

import (
	"fmt"

	"pimsim/internal/addr"
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/memlayout"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
)

// hashjoin is the in-memory hash join of §5.2: build a bucket-chained
// hash table from relation R, then probe it with every key of relation
// S using the hash-table-probing PEI, which checks one bucket and
// returns the match result plus the next bucket address. Chained
// buckets cost one PEI per hop, and multiple independent probes overlap
// in the out-of-order window (the software unrolling the paper
// describes).
type hashjoin struct {
	phaseCtl
	p Params

	nBuckets   int
	bucketBase uint64
	store      *memlayout.Store

	rRows, sRows int
	goldenHits   int64
	hits         int64

	// chainScratch backs chainFor's result so the per-probe walks (one
	// at table build, one per generated probe) do not allocate.
	chainScratch []uint64
}

func newHashJoin(p Params) *hashjoin { return &hashjoin{p: p} }

func (w *hashjoin) Name() string { return "hj" }

func (w *hashjoin) sizes() (r, s int) {
	switch w.p.Size {
	case Small:
		r = 128 << 10
	case Medium:
		r = 1 << 20
	default:
		r = 128 << 20
	}
	s = 128 << 20
	r /= w.p.Scale
	s /= w.p.Scale
	if r < 64 {
		r = 64
	}
	// Cap the probe relation so a full probe pass stays laptop-scale;
	// runs are budget-limited by OpBudget anyway.
	if s > 1<<21 {
		s = 1 << 21
	}
	if s < 256 {
		s = 256
	}
	return
}

func (w *hashjoin) rKey(i int) uint64 { return uint64(i)*2 + 1 }

// sKey alternates present and absent keys.
func (w *hashjoin) sKey(i int) uint64 {
	h := uint64(i)*2862933555777941757 + uint64(w.p.Seed) + 3037000493
	if i%2 == 0 {
		return w.rKey(int(h % uint64(w.rRows)))
	}
	return h | 1<<62 // guaranteed absent (above all R keys)
}

func (w *hashjoin) hash(key uint64) int {
	return int((key * 11400714819323198485) % uint64(w.nBuckets))
}

// insert places key into the table, chaining overflow buckets.
func (w *hashjoin) insert(st *memlayout.Store, key uint64) {
	b := w.bucketBase + uint64(w.hash(key))*addr.BlockBytes
	for {
		for slot := 0; slot < pim.HashBucketKeys; slot++ {
			off := b + pim.HashBucketKeyOff + uint64(slot*pim.HashBucketStride)
			if st.ReadU64(off) == 0 {
				st.WriteU64(off, key)
				st.WriteU64(off+8, key^0xda7a)
				return
			}
		}
		next := st.ReadU64(b + pim.HashBucketNextOff)
		if next == 0 {
			next = st.Alloc(addr.BlockBytes, addr.BlockBytes)
			st.WriteU64(b+pim.HashBucketNextOff, next)
		}
		b = next
	}
}

// chainFor computes the sequence of buckets a probe visits: every bucket
// up to and including the first match (or the whole chain on a miss).
// The table is read-only during probing, so this generation-time walk
// matches what the PEIs will see at simulation time. The returned slice
// aliases a scratch buffer valid until the next chainFor call.
func (w *hashjoin) chainFor(key uint64) (chain []uint64, hit bool) {
	chain = w.chainScratch[:0]
	b := w.bucketBase + uint64(w.hash(key))*addr.BlockBytes
	for b != 0 && !hit {
		chain = append(chain, b)
		for slot := 0; slot < pim.HashBucketKeys; slot++ {
			off := b + pim.HashBucketKeyOff + uint64(slot*pim.HashBucketStride)
			if w.store.ReadU64(off) == key {
				hit = true
				break
			}
		}
		if !hit {
			b = w.store.ReadU64(b + pim.HashBucketNextOff)
		}
	}
	w.chainScratch = chain
	return chain, hit
}

func (w *hashjoin) Streams(m *machine.Machine) []cpu.Stream {
	w.store = m.Store
	w.rRows, w.sRows = w.sizes()
	w.nBuckets = 1
	for w.nBuckets < w.rRows/2 {
		w.nBuckets <<= 1
	}
	w.bucketBase = m.Store.Alloc(w.nBuckets*addr.BlockBytes, addr.BlockBytes)
	for i := 0; i < w.rRows; i++ {
		w.insert(m.Store, w.rKey(i))
	}
	// Golden hit count (chains themselves are walked lazily at
	// generation time — the table is read-only during probing).
	w.goldenHits = 0
	for i := 0; i < w.sRows; i++ {
		if _, hit := w.chainFor(w.sKey(i)); hit {
			w.goldenHits++
		}
	}

	w.initPhases(1, nil)
	// The match counter lives host-side (PEI completion callbacks), so it
	// must ride in the snapshot alongside the machine state.
	w.snapExtra = func(sw *snap.Writer) { sw.I64(w.hits) }
	w.restoreExtra = func(sr *snap.Reader) { w.hits = sr.I64() }
	streams := make([]cpu.Stream, w.p.Threads)
	for t := 0; t < w.p.Threads; t++ {
		lo, hi := PartitionRange(w.sRows, w.p.Threads, t)
		budget := w.p.OpBudget
		d := &roundDriver{
			budget: &budget,
			rounds: 1,
			items:  hi - lo,
			perItem: func(q *cpu.Queue, _, i int) {
				key := w.sKey(lo + i)
				q.PushCompute(2) // hash computation
				chain, _ := w.chainFor(key)
				for _, bucket := range chain {
					p := &pim.PEI{Op: pim.OpHashProbe, Target: bucket, Input: pim.U64Input(key)}
					p.Done = func() {
						if p.Output[0] == 1 {
							w.hits++
						}
					}
					q.PushPEI(p)
				}
			},
		}
		streams[t] = w.addDriver(d).stream()
	}
	return streams
}

func (w *hashjoin) Verify(m *machine.Machine) error {
	if w.hits != w.goldenHits {
		return fmt.Errorf("hj: %d matches, want %d", w.hits, w.goldenHits)
	}
	return nil
}
