package pim

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"pimsim/internal/memlayout"
)

func TestTable1OperandSizes(t *testing.T) {
	want := []struct {
		op      OpKind
		r, w    bool
		in, out int
	}{
		{OpInc64, true, true, 0, 0},
		{OpMin64, true, true, 8, 0},
		{OpFloatAdd, true, true, 8, 0},
		{OpHashProbe, true, false, 8, 9},
		{OpHistBin, true, false, 1, 16},
		{OpEuclideanDist, true, false, 64, 4},
		{OpDotProduct, true, false, 32, 8},
	}
	for _, w := range want {
		info := w.op.Info()
		if info.Reader != w.r || info.Writer != w.w || info.InputBytes != w.in || info.OutputBytes != w.out {
			t.Errorf("%s: got %+v, want R=%v W=%v in=%d out=%d", info.Name, info, w.r, w.w, w.in, w.out)
		}
	}
}

func TestValidateOperandSize(t *testing.T) {
	p := &PEI{Op: OpMin64, Target: 64, Input: make([]byte, 4)}
	if err := p.Validate(); err == nil {
		t.Fatal("expected operand-size error")
	}
	p.Input = make([]byte, 8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateSingleCacheBlockRestriction(t *testing.T) {
	// A dot product (32 B) starting 40 bytes into a block crosses it.
	p := &PEI{Op: OpDotProduct, Target: 64 + 40, Input: make([]byte, 32)}
	if err := p.Validate(); err == nil {
		t.Fatal("expected block-crossing error")
	}
	p.Target = 64 + 32
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// execute runs op through a fresh record and returns its output operand.
func execute(op OpKind, s *memlayout.Store, target uint64, input []byte) []byte {
	p := &PEI{Op: op, Target: target, Input: input}
	p.Execute(s)
	return p.Output
}

// word encodes an 8-byte input operand.
func word(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func TestExecuteInc64(t *testing.T) {
	s := memlayout.NewStore()
	a := s.Alloc(8, 8)
	s.WriteU64(a, 41)
	if out := execute(OpInc64, s, a, nil); out != nil {
		t.Fatalf("inc output = %v, want nil", out)
	}
	if s.ReadU64(a) != 42 {
		t.Fatalf("value = %d, want 42", s.ReadU64(a))
	}
}

func TestExecuteMin64Signed(t *testing.T) {
	s := memlayout.NewStore()
	a := s.Alloc(8, 8)
	s.WriteU64(a, 100)
	execute(OpMin64, s, a, word(7))
	if s.ReadU64(a) != 7 {
		t.Fatalf("min(100,7) = %d", s.ReadU64(a))
	}
	execute(OpMin64, s, a, word(50))
	if s.ReadU64(a) != 7 {
		t.Fatalf("min must not increase: %d", s.ReadU64(a))
	}
	// Signed comparison: -1 < 7.
	execute(OpMin64, s, a, word(uint64(0xFFFFFFFFFFFFFFFF)))
	if int64(s.ReadU64(a)) != -1 {
		t.Fatalf("signed min failed: %d", int64(s.ReadU64(a)))
	}
}

func TestExecuteFloatAdd(t *testing.T) {
	s := memlayout.NewStore()
	a := s.Alloc(8, 8)
	s.WriteF64(a, 1.5)
	execute(OpFloatAdd, s, a, word(math.Float64bits(2.25)))
	if got := s.ReadF64(a); got != 3.75 {
		t.Fatalf("fadd = %v, want 3.75", got)
	}
}

func TestExecuteHashProbe(t *testing.T) {
	s := memlayout.NewStore()
	b := s.Alloc(64, 64)
	s.WriteU64(b+HashBucketNextOff, 0xBEEF00)
	s.WriteU64(b+HashBucketKeyOff+0*HashBucketStride, 111)
	s.WriteU64(b+HashBucketKeyOff+1*HashBucketStride, 222)
	s.WriteU64(b+HashBucketKeyOff+2*HashBucketStride, 333)

	out := execute(OpHashProbe, s, b, word(222))
	if out[0] != 1 {
		t.Fatal("expected match for key 222")
	}
	if next := binary.LittleEndian.Uint64(out[1:]); next != 0xBEEF00 {
		t.Fatalf("next = %#x, want 0xBEEF00", next)
	}
	out = execute(OpHashProbe, s, b, word(999))
	if out[0] != 0 {
		t.Fatal("expected no match for key 999")
	}
	if next := binary.LittleEndian.Uint64(out[1:]); next != 0xBEEF00 {
		t.Fatal("next pointer must be returned even on miss")
	}

	// The output lives in the record: executing a miss on a record that
	// just held a match must not keep the stale match byte.
	p := &PEI{Op: OpHashProbe, Target: b}
	p.SetInputWord(222)
	p.Execute(s)
	p.SetInputWord(999)
	p.Execute(s)
	if len(p.Output) != 9 || p.Output[0] != 0 {
		t.Fatalf("reused record output %v, want a miss", p.Output)
	}
}

func TestExecuteHistBin(t *testing.T) {
	s := memlayout.NewStore()
	b := s.Alloc(64, 64)
	for i := 0; i < 16; i++ {
		s.WriteU32(b+uint64(i*4), uint32(i)<<24)
	}
	out := execute(OpHistBin, s, b, []byte{24})
	if len(out) != 16 {
		t.Fatalf("output %d bytes, want 16", len(out))
	}
	for i := 0; i < 16; i++ {
		if out[i] != byte(i) {
			t.Fatalf("bin[%d] = %d, want %d", i, out[i], i)
		}
	}
}

func TestExecuteEuclideanDist(t *testing.T) {
	s := memlayout.NewStore()
	b := s.Alloc(64, 64)
	input := make([]byte, 64)
	for i := 0; i < 16; i++ {
		s.WriteF32(b+uint64(i*4), float32(i))
		binary.LittleEndian.PutUint32(input[i*4:], math.Float32bits(float32(i)+1))
	}
	out := execute(OpEuclideanDist, s, b, input)
	// Each dimension differs by 1: squared distance = 16.
	if got := math.Float32frombits(binary.LittleEndian.Uint32(out)); got != 16 {
		t.Fatalf("distance = %v, want 16", got)
	}
}

func TestExecuteDotProduct(t *testing.T) {
	s := memlayout.NewStore()
	b := s.Alloc(32, 64)
	input := make([]byte, 32)
	for i := 0; i < 4; i++ {
		s.WriteF64(b+uint64(i*8), float64(i+1)) // 1,2,3,4
		binary.LittleEndian.PutUint64(input[i*8:], math.Float64bits(2))
	}
	out := execute(OpDotProduct, s, b, input)
	if got := math.Float64frombits(binary.LittleEndian.Uint64(out)); got != 20 {
		t.Fatalf("dot = %v, want 20", got)
	}
}

// Property: a sequence of OpMin64 leaves the minimum of the initial
// value and all inputs (atomic-min semantics).
func TestMin64SequenceProperty(t *testing.T) {
	f := func(init int64, inputs []int64) bool {
		s := memlayout.NewStore()
		a := s.Alloc(8, 8)
		s.WriteU64(a, uint64(init))
		want := init
		for _, v := range inputs {
			execute(OpMin64, s, a, word(uint64(v)))
			if v < want {
				want = v
			}
		}
		return int64(s.ReadU64(a)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: OpInc64 applied n times adds n.
func TestInc64CountProperty(t *testing.T) {
	f := func(n uint8, init uint32) bool {
		s := memlayout.NewStore()
		a := s.Alloc(8, 8)
		s.WriteU64(a, uint64(init))
		for i := 0; i < int(n); i++ {
			execute(OpInc64, s, a, nil)
		}
		return s.ReadU64(a) == uint64(init)+uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpStrings(t *testing.T) {
	if OpInc64.String() != "inc64" || OpDotProduct.String() != "dot" {
		t.Fatal("op names wrong")
	}
}
