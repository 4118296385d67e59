package memlayout

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"pimsim/internal/snap"
)

// snapPiece is how many expected bytes Snap stages at a time.
const snapPiece = 64 << 10

// Snap codes the allocator's high-water mark and the flat image of
// [0, high-water mark): zeros below Base, then every segment's bytes in
// address order. Only writable bytes are restored; the zeros below Base
// and the words of read-only mappings are expected, so a blob that
// differs there fails the restore.
//
// Layout (which addresses hold what) is not recorded — it is a pure
// function of the workload's deterministic Streams() construction,
// which a resuming run replays before overlaying these bytes. The
// high-water mark is geometry: a mismatch means the resuming run was
// not built identically and fails the restore.
func (s *Store) Snap(c *snap.Coder) {
	c.Section("STOR")
	c.Expect("memlayout: allocation high-water mark", int(s.next))
	c.Expect("payload length", int(s.next))
	want, got := make([]byte, snapPiece), make([]byte, snapPiece)
	// expect codes the bytes fill produces for [a, end): an encoder
	// writes them, a decoder checks that the blob holds them.
	expect := func(a, end uint64, fill func(b []byte, a uint64)) {
		for ; a < end && c.Err() == nil; a += snapPiece {
			n := min(snapPiece, end-a)
			fill(want[:n], a)
			if !c.Decoding() {
				c.Raw(want[:n])
				continue
			}
			if c.Raw(got[:n]); c.Err() == nil && !bytes.Equal(got[:n], want[:n]) {
				c.Fail(fmt.Errorf("memlayout: snapshot alters read-only bytes in [%#x,%#x)", a, a+n))
			}
		}
	}
	expect(0, Base, func(b []byte, _ uint64) { clear(b) })
	for i := range s.segs {
		g := &s.segs[i]
		if g.words == nil {
			c.Raw(g.data)
			continue
		}
		expect(g.start, g.end(), func(b []byte, a uint64) {
			w := g.words[(a-g.start)/4:]
			for j := 0; j < len(b); j += 4 {
				binary.LittleEndian.PutUint32(b[j:], uint32(w[j/4]))
			}
		})
	}
}
