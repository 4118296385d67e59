// Package snap is the machine-state serialization layer behind
// checkpoint/warm-start snapshots: a little-endian binary record format
// with explicit section tags and a version header, plus a
// content-addressed on-disk blob store (store.go).
//
// Every stateful component of the simulator has one Snap(*snap.Coder)
// method that hands each of its fields to the Coder by pointer. An
// encoding Coder reads the field and writes it; a decoding Coder reads
// the stream and sets the field. So each layout is spelled once, for
// both save and restore, and the two directions cannot drift apart.
// The decoder checks what the format makes checkable: the magic and
// version, every section tag, every length prefix (it must be
// plausible and backed by bytes), every geometry value (it must match
// the receiving machine), and every bool and enum (it must hold a value
// the encoder could have written). Any such mismatch poisons the Coder,
// so a torn blob, or a blob from another format version or machine
// geometry, fails to restore.
// The format carries no checksum: a corrupted byte that keeps its field
// inside the field's valid range (a counter, a cycle, a stored data
// word) restores without error.
package snap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// magic identifies a snapshot stream; the trailing digit is the major
// format generation (bump it for incompatible layout changes).
var magic = [8]byte{'P', 'E', 'I', 'S', 'N', 'A', 'P', '1'}

// Version is the snapshot format version written after the magic. It
// participates in the content-address digest, so a format bump
// invalidates old blobs instead of misreading them.
const Version uint32 = 1

// maxSliceLen bounds length prefixes read back from a blob.
const maxSliceLen = 1 << 32

// flushAt is the encoder's buffer size: encoded fields collect there
// and reach the underlying writer one chunk at a time, not one Write
// per field.
const flushAt = 64 << 10

// readChunk is the decoder's read-buffer size, and caps how far it
// allocates ahead of the bytes it has actually read, so a corrupt
// length prefix cannot provoke an allocation larger than the stream
// behind it.
const readChunk = 64 << 10

// Coder encodes or decodes one snapshot stream. Errors are sticky:
// after the first failure every call is a no-op and Err reports the
// cause. A failed decode leaves the field it was handed unchanged.
type Coder struct {
	w   io.Writer     // set when encoding
	out []byte        // encoded bytes not yet handed to w
	r   *bufio.Reader // set when decoding
	err error
	buf [8]byte
}

// NewEncoder starts a stream with the magic and version header and
// returns an encoding Coder writing to w. The stream is complete once
// Flush returns.
func NewEncoder(w io.Writer) *Coder {
	c := &Coder{w: w, out: make([]byte, 0, flushAt)}
	c.write(magic[:])
	v := Version
	c.U32(&v)
	return c
}

// NewDecoder validates the magic and version header read from r and
// returns a decoding Coder. It reads r in readChunk-sized chunks, not
// one Read per field, so it may consume bytes past the end of the
// snapshot stream: r must hold this stream alone.
func NewDecoder(r io.Reader) (*Coder, error) {
	c := &Coder{r: bufio.NewReaderSize(r, readChunk)}
	var m [8]byte
	if _, err := io.ReadFull(c.r, m[:]); err != nil {
		return nil, fmt.Errorf("snap: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("snap: bad magic %q (not a snapshot stream)", m[:])
	}
	var v uint32
	c.U32(&v)
	if c.err != nil {
		return nil, c.err
	}
	if v != Version {
		return nil, fmt.Errorf("snap: format version %d, want %d", v, Version)
	}
	return c, nil
}

// Decoding reports whether the Coder restores state. Components whose
// layout really differs by direction branch on it once.
func (c *Coder) Decoding() bool { return c.r != nil }

// Err returns the first error encountered, if any. An encoder reports
// write errors only as its buffer is flushed.
func (c *Coder) Err() error { return c.err }

// Fail poisons the Coder with err (for components that detect an
// uncodable state mid-stream, e.g. in-flight transactions).
func (c *Coder) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Flush hands the encoder's buffered bytes to the underlying writer
// and returns the first error encountered, if any.
func (c *Coder) Flush() error {
	if c.r == nil {
		c.flush()
	}
	return c.err
}

func (c *Coder) flush() {
	c.emit(c.out)
	c.out = c.out[:0]
}

func (c *Coder) emit(b []byte) {
	if c.err != nil {
		return
	}
	if _, err := c.w.Write(b); err != nil {
		c.err = err
	}
}

// room makes space for n more bytes in the encoder's buffer.
func (c *Coder) room(n int) {
	if len(c.out)+n > cap(c.out) {
		c.flush()
	}
}

// write buffers b; a payload larger than the buffer goes straight to
// the underlying writer.
func (c *Coder) write(b []byte) {
	c.room(len(b))
	if len(b) > cap(c.out) {
		c.emit(b)
		return
	}
	c.out = append(c.out, b...)
}

// read fills b from the stream. Every byte a decoder asks for is part
// of the layout, so running out of stream is always unexpected.
func (c *Coder) read(b []byte) bool {
	if c.err != nil {
		return false
	}
	if _, err := io.ReadFull(c.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		c.err = err
		return false
	}
	return true
}

// Section codes a 4-character section tag; decoding fails unless the
// stream holds the same tag, so a layout drift fails at the first
// misaligned section instead of silently transposing state.
func (c *Coder) Section(tag string) {
	if len(tag) != 4 {
		c.Fail(fmt.Errorf("snap: section tag %q must be 4 bytes", tag))
		return
	}
	if c.r == nil {
		c.room(len(tag))
		c.out = append(c.out, tag...)
		return
	}
	if c.read(c.buf[:4]) && string(c.buf[:4]) != tag {
		c.Fail(fmt.Errorf("snap: section %q, want %q (layout mismatch)", c.buf[:4], tag))
	}
}

// Enum codes one byte holding a value below n (a bool, a MESI state).
// Decoding rejects a byte the encoder could not have written.
func (c *Coder) Enum(v *uint8, n uint8) {
	if c.r == nil {
		c.room(1)
		c.out = append(c.out, *v)
		return
	}
	if !c.read(c.buf[:1]) {
		return
	}
	if c.buf[0] >= n {
		c.Fail(fmt.Errorf("snap: byte %d out of range, want < %d", c.buf[0], n))
		return
	}
	*v = c.buf[0]
}

// Bool codes a boolean as one byte, 0 or 1.
func (c *Coder) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.Enum(&b, 2)
	*v = b == 1
}

// U32 codes a little-endian uint32.
func (c *Coder) U32(v *uint32) {
	if c.r == nil {
		c.room(4)
		c.out = binary.LittleEndian.AppendUint32(c.out, *v)
	} else if c.read(c.buf[:4]) {
		*v = binary.LittleEndian.Uint32(c.buf[:4])
	}
}

// U64 codes a little-endian uint64.
func (c *Coder) U64(v *uint64) {
	if c.r == nil {
		c.room(8)
		c.out = binary.LittleEndian.AppendUint64(c.out, *v)
	} else if c.read(c.buf[:8]) {
		*v = binary.LittleEndian.Uint64(c.buf[:8])
	}
}

// I64 codes a little-endian int64.
func (c *Coder) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	*v = int64(u)
}

// Int codes an int as an int64.
func (c *Coder) Int(v *int) {
	i := int64(*v)
	c.I64(&i)
	*v = int(i)
}

// F64 codes a float64 as its IEEE-754 bits.
func (c *Coder) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	*v = math.Float64frombits(u)
}

// F32 codes a float32 as its IEEE-754 bits.
func (c *Coder) F32(v *float32) {
	u := math.Float32bits(*v)
	c.U32(&u)
	*v = math.Float32frombits(u)
}

// Len codes a count that sizes what follows. Decoding rejects
// implausible values.
func (c *Coder) Len(n *int) {
	u := uint64(*n)
	c.U64(&u)
	if u > maxSliceLen {
		c.Fail(fmt.Errorf("snap: implausible length %d", u))
		return
	}
	*n = int(u)
}

// Expect codes a value its owner already knows, such as a geometry:
// encoding writes v, decoding reads the recorded value and fails unless
// it equals v. what names the value in the error.
func (c *Coder) Expect(what string, v int) {
	got := v
	c.Int(&got)
	if got != v {
		c.Fail(fmt.Errorf("snap: %s is %d, snapshot has %d", what, v, got))
	}
}

// ExpectBool is Expect for a boolean, such as whether an optional
// component exists.
func (c *Coder) ExpectBool(what string, v bool) {
	got := v
	c.Bool(&got)
	if got != v {
		c.Fail(fmt.Errorf("snap: %s is %v, snapshot has %v", what, v, got))
	}
}

// String codes a length-prefixed string. Decoding allocates only as
// the payload is read.
func (c *Coder) String(s *string) {
	n := len(*s)
	c.Len(&n)
	if c.r == nil {
		c.room(len(*s))
		c.out = append(c.out, *s...)
		return
	}
	if b := c.readN(n); c.err == nil {
		*s = string(b)
	}
}

// readN reads an n-byte payload, growing the buffer only as data
// arrives: a forged length prefix fails with io.ErrUnexpectedEOF at the
// end of the stream instead of allocating what the prefix claims.
func (c *Coder) readN(n int) []byte {
	b := make([]byte, 0, min(n, readChunk))
	for len(b) < n && c.err == nil {
		k := min(n-len(b), readChunk)
		b = slices.Grow(b, k)
		if c.read(b[len(b) : len(b)+k]) {
			b = b[:len(b)+k]
		}
	}
	return b
}

// Bytes codes a length-prefixed payload in place: decoding requires the
// recorded length to equal len(b) and fills b.
func (c *Coder) Bytes(b []byte) {
	c.Expect("payload length", len(b))
	c.Raw(b)
}

// Raw codes len(b) bytes in place with no length prefix, for a payload
// its owner codes in pieces after coding the total length itself.
func (c *Coder) Raw(b []byte) {
	if c.r == nil {
		c.write(b)
	} else {
		c.read(b)
	}
}

// I64s codes a length-prefixed []int64 in place, like Bytes.
func (c *Coder) I64s(xs []int64) {
	c.Expect("slice length", len(xs))
	for i := range xs {
		c.I64(&xs[i])
	}
}

// U64s codes a length-prefixed []uint64 in place, like Bytes.
func (c *Coder) U64s(xs []uint64) {
	c.Expect("slice length", len(xs))
	for i := range xs {
		c.U64(&xs[i])
	}
}

// ErrNotQuiescent is the sentinel components wrap when asked to
// snapshot or restore with in-flight work outstanding: snapshots are
// only defined at quiescent phase boundaries.
var ErrNotQuiescent = errors.New("snap: machine not quiescent")
