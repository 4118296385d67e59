// Package pim implements the paper's primary contribution: PIM-enabled
// instructions (PEIs) and the hardware that executes them — PEI
// Computation Units (PCUs) on the host side and in each vault, and the
// PEI Management Unit (PMU) with its PIM directory, locality monitor, and
// balanced dispatch logic.
package pim

import (
	"encoding/binary"
	"fmt"
	"math"

	"pimsim/internal/addr"
	"pimsim/internal/memlayout"
)

// OpKind identifies one of the seven PIM operations of Table 1.
type OpKind uint8

const (
	// OpInc64 is the 8-byte atomic integer increment (ATF).
	OpInc64 OpKind = iota
	// OpMin64 is the 8-byte atomic integer min (BFS, SP, WCC).
	OpMin64
	// OpFloatAdd is the double-precision atomic add (PR).
	OpFloatAdd
	// OpHashProbe checks the keys in one hash bucket for a match and
	// returns the match result and the next-bucket address (HJ).
	OpHashProbe
	// OpHistBin shifts each of the 16 4-byte words in the target block by
	// the given amount and returns the 16 one-byte bin indexes (HG, RP).
	OpHistBin
	// OpEuclideanDist computes the squared Euclidean distance between the
	// 16-dimensional single-precision vector in the target block and the
	// input vector (SC).
	OpEuclideanDist
	// OpDotProduct computes the dot product of the 4-dimensional
	// double-precision vector at the target and the input vector (SVM).
	OpDotProduct

	numOps
)

// OpInfo describes one PEI kind: Table 1's reader/writer flags and
// operand sizes, plus the PCU compute occupancy.
type OpInfo struct {
	Name string
	// Reader/Writer: whether the operation reads/modifies its target
	// cache block.
	Reader, Writer bool
	// InputBytes/OutputBytes are the operand payload sizes.
	InputBytes, OutputBytes int
	// ComputeCycles is the PCU computation-logic occupancy in PCU clock
	// cycles (single-issue logic; the operand buffer overlaps the memory
	// accesses of multiple PEIs, §4.2).
	ComputeCycles int64
}

// Ops is Table 1. Indexed by OpKind.
var Ops = [numOps]OpInfo{
	OpInc64:         {Name: "inc64", Reader: true, Writer: true, InputBytes: 0, OutputBytes: 0, ComputeCycles: 1},
	OpMin64:         {Name: "min64", Reader: true, Writer: true, InputBytes: 8, OutputBytes: 0, ComputeCycles: 1},
	OpFloatAdd:      {Name: "fadd", Reader: true, Writer: true, InputBytes: 8, OutputBytes: 0, ComputeCycles: 4},
	OpHashProbe:     {Name: "hashprobe", Reader: true, Writer: false, InputBytes: 8, OutputBytes: 9, ComputeCycles: 4},
	OpHistBin:       {Name: "histbin", Reader: true, Writer: false, InputBytes: 1, OutputBytes: 16, ComputeCycles: 8},
	OpEuclideanDist: {Name: "euclid", Reader: true, Writer: false, InputBytes: 64, OutputBytes: 4, ComputeCycles: 16},
	OpDotProduct:    {Name: "dot", Reader: true, Writer: false, InputBytes: 32, OutputBytes: 8, ComputeCycles: 8},
}

func (k OpKind) Info() OpInfo { return Ops[k] }

func (k OpKind) String() string { return Ops[k].Name }

// Hash-bucket layout for OpHashProbe. A bucket fills one cache block:
// an 8-byte next-bucket address (0 = end of chain) followed by
// HashBucketKeys (key, payload) pairs of 8 bytes each.
const (
	HashBucketNextOff = 0
	HashBucketKeys    = 3
	HashBucketKeyOff  = 8
	HashBucketStride  = 16
)

// PEI is one in-flight PIM-enabled instruction. Target is the physical
// address of the accessed word/vector; the single-cache-block restriction
// requires Target's operand to lie within one 64-byte block, which
// Validate enforces.
//
// A PEI is a record its issuing core draws from a free list at issue and
// returns at retire, so in-flight PEIs are bounded by the core's window.
// Table 1 caps every operand (at most 8 inline input bytes, 16 output
// bytes), so scalar inputs and every output live in the record itself;
// vector inputs (euclid, dot) alias an operand table the issuing stream
// builds once.
type PEI struct {
	Op     OpKind
	Target uint64
	// Tag is the issuing stream's label for the PEI (which accumulator
	// its output feeds), handed back with the record at retire.
	Tag uint32
	// Input holds the input operand (len must match Ops[Op].InputBytes).
	Input []byte
	// Output receives the output operand before the PEI retires; it
	// aliases the record and is valid until the record is recycled.
	Output []byte

	in  [8]byte
	out [16]byte
}

// SetInputWord sets Input to the low Ops[Op].InputBytes bytes of w
// (little-endian), held in the record. It serves the scalar-input ops,
// whose operand is at most one 8-byte word.
func (p *PEI) SetInputWord(w uint64) {
	binary.LittleEndian.PutUint64(p.in[:], w)
	p.Input = p.in[:Ops[p.Op].InputBytes]
}

// targetBytes returns how many bytes at Target the operation touches.
func (k OpKind) targetBytes() int {
	switch k {
	case OpHashProbe, OpHistBin, OpEuclideanDist:
		return addr.BlockBytes
	case OpDotProduct:
		return 32
	default:
		return 8
	}
}

// Validate checks operand sizes and the single-cache-block restriction.
func (p *PEI) Validate() error {
	info := p.Op.Info()
	if len(p.Input) != info.InputBytes {
		//peilint:allow hotalloc invalid-PEI error path; Issue panics on it, ending the run
		return fmt.Errorf("pim: %s input operand %d bytes, want %d", info.Name, len(p.Input), info.InputBytes)
	}
	n := uint64(p.Op.targetBytes())
	if addr.BlockOf(p.Target) != addr.BlockOf(p.Target+n-1) {
		//peilint:allow hotalloc invalid-PEI error path; Issue panics on it, ending the run
		return fmt.Errorf("pim: %s target %#x..+%d crosses a cache-block boundary", info.Name, p.Target, n)
	}
	return nil
}

// Execute performs the operation functionally against the store and
// sets Output to the output operand, written into the record (nil for
// zero-output ops). It is invoked by whichever PCU the PEI was steered
// to, at the simulated time the computation completes; the PIM
// directory guarantees no other PEI is mid-flight on the same block at
// that moment.
func (p *PEI) Execute(s *memlayout.Store) {
	target, input := p.Target, p.Input
	p.Output = nil
	if n := Ops[p.Op].OutputBytes; n > 0 {
		p.Output = p.out[:n]
	}
	out := p.Output
	switch p.Op {
	case OpInc64:
		s.WriteU64(target, s.ReadU64(target)+1)
	case OpMin64:
		v := binary.LittleEndian.Uint64(input)
		if int64(v) < int64(s.ReadU64(target)) {
			s.WriteU64(target, v)
		}
	case OpFloatAdd:
		d := math.Float64frombits(binary.LittleEndian.Uint64(input))
		s.WriteF64(target, s.ReadF64(target)+d)
	case OpHashProbe:
		key := binary.LittleEndian.Uint64(input)
		out[0] = 0
		for i := 0; i < HashBucketKeys; i++ {
			off := target + HashBucketKeyOff + uint64(i*HashBucketStride)
			if s.ReadU64(off) == key {
				out[0] = 1
				break
			}
		}
		binary.LittleEndian.PutUint64(out[1:], s.ReadU64(target+HashBucketNextOff))
	case OpHistBin:
		shift := uint(input[0])
		for i := 0; i < 16; i++ {
			out[i] = byte(s.ReadU32(target+uint64(i*4)) >> shift)
		}
	case OpEuclideanDist:
		var sum float32
		for i := 0; i < 16; i++ {
			a := s.ReadF32(target + uint64(i*4))
			b := math.Float32frombits(binary.LittleEndian.Uint32(input[i*4:]))
			d := a - b
			sum += d * d
		}
		binary.LittleEndian.PutUint32(out, math.Float32bits(sum))
	case OpDotProduct:
		var sum float64
		for i := 0; i < 4; i++ {
			a := s.ReadF64(target + uint64(i*8))
			b := math.Float64frombits(binary.LittleEndian.Uint64(input[i*8:]))
			sum += a * b
		}
		binary.LittleEndian.PutUint64(out, math.Float64bits(sum))
	default:
		panic(fmt.Sprintf("pim: unknown op %d", p.Op))
	}
}
