package memlayout

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"pimsim/internal/snap"
)

// flatModel is the reference the segmented Store must agree with: a
// bump allocator over one flat byte image of [0, next), with the
// read-only ranges MapU32 placed in it noted beside.
type flatModel struct {
	mem  []byte
	next uint64
}

// readOnly reports whether [a, a+n) overlaps a mapped region.
func readOnly(regions []region, a, n uint64) bool {
	for _, r := range regions {
		if r.mapped && a < r.a+uint64(r.n) && r.a < a+n {
			return true
		}
	}
	return false
}

func (f *flatModel) place(n int, align uint64) uint64 {
	a := (f.next + align - 1) &^ (align - 1)
	f.next = a + uint64(n)
	if grow := int(f.next) - len(f.mem); grow > 0 {
		f.mem = append(f.mem, make([]byte, grow)...)
	}
	return a
}

// region is one range the model handed out.
type region struct {
	a      uint64
	n      int
	mapped bool
}

// step is one layout call, kept so a second store can be laid out
// identically before it restores a snapshot.
type step struct {
	n     int
	align uint64
	words []int32
}

func (st step) apply(s *Store) uint64 {
	if st.words != nil {
		return s.MapU32(st.words, st.align)
	}
	return s.Alloc(st.n, st.align)
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestStoreMatchesFlatModel runs random Alloc/MapU32/read/write
// sequences against the segmented store and the flat reference: every
// address and every value read must match, also for accesses that
// cross region and segment boundaries, writes touching a mapping and
// accesses below Base must panic, and the snapshot must code the
// reference's flat image, restore the writable bytes into an
// identically laid-out store, and reject a blob whose read-only bytes
// were altered.
func TestStoreMatchesFlatModel(t *testing.T) {
	crossings := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		ref := &flatModel{mem: make([]byte, Base), next: Base}
		var regions []region
		var steps []step
		for op := 0; op < 300; op++ {
			align := uint64(1) << rng.Intn(8)
			switch k := rng.Intn(12); {
			case k < 3: // small allocation, sometimes empty
				st := step{n: rng.Intn(200), align: align}
				a := st.apply(s)
				if want := ref.place(st.n, align); a != want {
					t.Fatalf("seed %d op %d: Alloc(%d, %d) = %#x, flat model %#x", seed, op, st.n, align, a, want)
				}
				regions = append(regions, region{a: a, n: st.n})
				steps = append(steps, st)
			case k == 3: // allocation of minChunk or more
				st := step{n: minChunk + rng.Intn(minChunk), align: align}
				a := st.apply(s)
				if want := ref.place(st.n, align); a != want {
					t.Fatalf("seed %d op %d: Alloc(%d, %d) = %#x, flat model %#x", seed, op, st.n, align, a, want)
				}
				regions = append(regions, region{a: a, n: st.n})
				steps = append(steps, st)
			case k == 4: // read-only mapping
				words := make([]int32, 1+rng.Intn(300))
				for i := range words {
					words[i] = int32(rng.Uint32())
				}
				st := step{align: align * 4, words: words}
				a := st.apply(s)
				want := ref.place(4*len(words), st.align)
				if a != want {
					t.Fatalf("seed %d op %d: MapU32(%d words, %d) = %#x, flat model %#x", seed, op, len(words), st.align, a, want)
				}
				for i, w := range words {
					binary.LittleEndian.PutUint32(ref.mem[a+4*uint64(i):], uint32(w))
				}
				regions = append(regions, region{a: a, n: 4 * len(words), mapped: true})
				steps = append(steps, st)
			case k < 8 && len(regions) > 0: // write, then read back
				r := regions[rng.Intn(len(regions))]
				if r.n < 8 {
					continue
				}
				a := r.a + uint64(rng.Intn(r.n-7))
				v := rng.Uint64()
				if r.mapped {
					if !panics(func() { s.WriteU64(a, v) }) || !panics(func() { s.WriteU32(a, uint32(v)) }) {
						t.Fatalf("seed %d op %d: write to mapping at %#x did not panic", seed, op, a)
					}
					continue
				}
				if rng.Intn(2) == 0 {
					s.WriteU64(a, v)
					binary.LittleEndian.PutUint64(ref.mem[a:], v)
				} else {
					s.WriteU32(a, uint32(v))
					binary.LittleEndian.PutUint32(ref.mem[a:], uint32(v))
				}
			case k == 8 && len(regions) > 0: // read anywhere in a region
				r := regions[rng.Intn(len(regions))]
				if r.n < 8 {
					continue
				}
				a := r.a + uint64(rng.Intn(r.n-7))
				if got, want := s.ReadU64(a), binary.LittleEndian.Uint64(ref.mem[a:]); got != want {
					t.Fatalf("seed %d op %d: ReadU64(%#x) = %#x, flat model %#x", seed, op, a, got, want)
				}
				if got, want := s.ReadU32(a), binary.LittleEndian.Uint32(ref.mem[a:]); got != want {
					t.Fatalf("seed %d op %d: ReadU32(%#x) = %#x, flat model %#x", seed, op, a, got, want)
				}
			case k < 11 && len(regions) > 0 && ref.next-Base >= 8: // across boundaries
				n := uint64(4) << rng.Intn(2)
				r := regions[rng.Intn(len(regions))]
				a := r.a + uint64(r.n) - 1 - uint64(rng.Intn(int(n))) // straddles the region's end
				a = min(max(a, Base), ref.next-n)
				if s.segAt(a) != s.segAt(a+n-1) {
					crossings++
				}
				read := func() uint64 {
					if n == 8 {
						return s.ReadU64(a)
					}
					return uint64(s.ReadU32(a))
				}
				if !r.mapped && r.n >= 8 {
					s.ReadU64(r.a) // the region's segment is now the last-hit one
				}
				want := binary.LittleEndian.Uint64(append(bytes.Clone(ref.mem[a:a+n]), make([]byte, 8-n)...))
				if got := read(); got != want {
					t.Fatalf("seed %d op %d: %d-byte read at %#x = %#x, flat model %#x", seed, op, n, a, got, want)
				}
				v := rng.Uint64()
				write := func() {
					if n == 8 {
						s.WriteU64(a, v)
					} else {
						s.WriteU32(a, uint32(v))
					}
				}
				if readOnly(regions, a, n) {
					if !panics(write) {
						t.Fatalf("seed %d op %d: %d-byte write at %#x touching a mapping did not panic", seed, op, n, a)
					}
					if got := read(); got != want {
						t.Fatalf("seed %d op %d: a refused write at %#x changed the bytes to %#x", seed, op, a, got)
					}
					continue
				}
				write()
				for k := range n {
					ref.mem[a+k] = byte(v >> (8 * k))
				}
				if got := read(); got != v&(1<<(8*n)-1) {
					t.Fatalf("seed %d op %d: %d-byte write of %#x at %#x reads back %#x", seed, op, n, v, a, got)
				}
			default: // below Base, or past the high-water mark
				a := uint64(rng.Intn(Base - 8))
				if !panics(func() { s.ReadU64(a) }) || !panics(func() { s.WriteU32(a, 1) }) {
					t.Fatalf("seed %d op %d: access at %#x below Base did not panic", seed, op, a)
				}
				if !panics(func() { s.ReadU32(ref.next) }) {
					t.Fatalf("seed %d op %d: read at the high-water mark %#x did not panic", seed, op, ref.next)
				}
			}
		}
		checkSnapshot(t, seed, s, ref, regions, steps)
	}
	if crossings == 0 {
		t.Fatal("no access crossed a segment boundary")
	}
}

func checkSnapshot(t *testing.T, seed int64, s *Store, ref *flatModel, regions []region, steps []step) {
	t.Helper()
	var buf bytes.Buffer
	c := snap.NewEncoder(&buf)
	s.Snap(c)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	image := blob[len(blob)-int(ref.next):] // STOR is the stream's last section
	if !bytes.Equal(image, ref.mem[:ref.next]) {
		t.Fatalf("seed %d: snapshot image differs from the flat model's", seed)
	}
	restore := func(blob []byte) (*Store, error) {
		s2 := NewStore()
		for _, st := range steps {
			st.apply(s2)
		}
		d, err := snap.NewDecoder(bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
		s2.Snap(d)
		return s2, d.Err()
	}
	s2, err := restore(blob)
	if err != nil {
		t.Fatalf("seed %d: restore: %v", seed, err)
	}
	for _, r := range regions {
		for a := r.a; a+4 <= r.a+uint64(r.n); a += 4 {
			if got, want := s2.ReadU32(a), binary.LittleEndian.Uint32(ref.mem[a:]); got != want {
				t.Fatalf("seed %d: restored ReadU32(%#x) = %#x, flat model %#x", seed, a, got, want)
			}
		}
	}
	altered := func(a uint64) []byte {
		b := bytes.Clone(blob)
		b[len(b)-int(ref.next)+int(a)] ^= 0x40
		return b
	}
	if _, err := restore(altered(uint64(rand.New(rand.NewSource(seed)).Intn(Base)))); err == nil {
		t.Fatalf("seed %d: a blob with a nonzero byte below Base restored", seed)
	}
	for _, r := range regions {
		if r.mapped {
			if _, err := restore(altered(r.a + uint64(r.n) - 1)); err == nil {
				t.Fatalf("seed %d: a blob altering the mapping at %#x restored", seed, r.a)
			}
			break
		}
	}
}
