package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// encode runs fn through a fresh encoder and returns the stream.
func encode(t *testing.T, fn func(*Coder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	fn(c)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decoder returns a decoding Coder positioned after the header.
func decoder(t *testing.T, stream []byte) *Coder {
	t.Helper()
	c, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// record is one value of every type the Coder handles, coded in a
// fixed order by snap.
type record struct {
	b, f    bool
	e       uint8
	u32     uint32
	u64     uint64
	i64     int64
	n       int
	f64     float64
	f32     float32
	payload []byte
	s       string
	is      []int64
	us      []uint64
}

func (r *record) snap(c *Coder) {
	c.Section("TEST")
	c.Enum(&r.e, 4)
	c.Bool(&r.b)
	c.Bool(&r.f)
	c.U32(&r.u32)
	c.U64(&r.u64)
	c.I64(&r.i64)
	c.Int(&r.n)
	c.F64(&r.f64)
	c.F32(&r.f32)
	c.Expect("geometry", 12)
	c.ExpectBool("presence", true)
	c.Bytes(r.payload)
	c.String(&r.s)
	c.I64s(r.is)
	c.U64s(r.us)
}

func TestWriterReaderRoundTrip(t *testing.T) {
	src := record{
		b: true, e: 3, u32: 0xDEADBEEF, u64: 1 << 62, i64: -42, n: 7,
		f64: math.Pi, f32: 2.5, payload: []byte{1, 2, 3}, s: "hello",
		is: []int64{-1, 0, 1}, us: []uint64{10, 20},
	}
	stream := encode(t, src.snap)

	dst := record{payload: make([]byte, 3), is: make([]int64, 3), us: make([]uint64, 2), f: true}
	c := decoder(t, stream)
	dst.snap(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if dst.b != src.b || dst.f != src.f || dst.e != src.e || dst.u32 != src.u32 ||
		dst.u64 != src.u64 || dst.i64 != src.i64 || dst.n != src.n ||
		dst.f64 != src.f64 || dst.f32 != src.f32 || dst.s != src.s ||
		!bytes.Equal(dst.payload, src.payload) ||
		dst.is[0] != -1 || dst.is[2] != 1 || dst.us[0] != 10 || dst.us[1] != 20 {
		t.Fatalf("round trip diverged:\nsrc %+v\ndst %+v", src, dst)
	}
	if _, err := c.r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("decoder left bytes unread (err %v)", err)
	}
}

func TestSectionMismatchPoisonsReader(t *testing.T) {
	one := int64(1)
	c := decoder(t, encode(t, func(c *Coder) {
		c.Section("AAAA")
		c.I64(&one)
	}))
	c.Section("BBBB")
	if c.Err() == nil {
		t.Fatal("section mismatch went undetected")
	}
	// Sticky: later calls stay failed and leave their fields alone.
	v := int64(5)
	if c.I64(&v); v != 5 || c.Err() == nil {
		t.Fatalf("poisoned decoder set %d", v)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("NOTASNAP-extra--"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version+1)
	buf.Write(v[:])
	if _, err := NewDecoder(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("future format version accepted")
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	forged := uint64(maxSliceLen + 1)
	c := decoder(t, encode(t, func(c *Coder) { c.U64(&forged) }))
	var s string
	if c.String(&s); s != "" || c.Err() == nil {
		t.Fatalf("forged length produced %d bytes, err %v", len(s), c.Err())
	}
}

func TestTruncatedStreamFailsLoudly(t *testing.T) {
	full := encode(t, func(c *Coder) {
		c.Section("TRNC")
		c.Bytes(make([]byte, 64))
	})
	c := decoder(t, full[:len(full)-10])
	c.Section("TRNC")
	if c.Bytes(make([]byte, 64)); !errors.Is(c.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: err %v, want unexpected EOF", c.Err())
	}
}

// TestForgedLengthAllocatesOnlyWhatIsRead pins that a length prefix
// promising far more than the stream holds fails at the end of the
// stream, having allocated about what it read, not what it was told.
func TestForgedLengthAllocatesOnlyWhatIsRead(t *testing.T) {
	for _, n := range []uint64{1 << 27, maxSliceLen} {
		stream := encode(t, func(c *Coder) {
			c.U64(&n)
			tail := uint64(0xFEED)
			c.U64(&tail)
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := decoder(t, stream)
		var s string
		c.String(&s)
		runtime.ReadMemStats(&after)
		if !errors.Is(c.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("prefix %d: err %v, want unexpected EOF", n, c.Err())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Fatalf("prefix %d: decoding a %d-byte stream allocated %d bytes", n, len(stream), got)
		}
	}
	// Fixed-length slices check the prefix before reading anything.
	big := uint64(1 << 27)
	c := decoder(t, encode(t, func(c *Coder) { c.U64(&big) }))
	if c.I64s(make([]int64, 4)); c.Err() == nil {
		t.Fatal("I64s accepted a length prefix that disagrees with its slice")
	}
}

// TestExpectRejectsMismatch pins geometry checks: a decoder whose owner
// has a different value fails instead of loading state.
func TestExpectRejectsMismatch(t *testing.T) {
	c := decoder(t, encode(t, func(c *Coder) { c.Expect("sets", 64) }))
	if c.Expect("sets", 32); c.Err() == nil {
		t.Fatal("Expect accepted 64 for 32")
	}
	c = decoder(t, encode(t, func(c *Coder) { c.ExpectBool("barrier", true) }))
	if c.ExpectBool("barrier", false); c.Err() == nil {
		t.Fatal("ExpectBool accepted true for false")
	}
}
