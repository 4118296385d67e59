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
type PEI struct {
	Op     OpKind
	Target uint64
	// Input holds the input operand (len must match Ops[Op].InputBytes).
	Input []byte
	// Output receives the output operand before the PEI retires.
	Output []byte
	// Done, if set, runs when the issuing core retires the PEI (output
	// operand readable). The PMU never calls it: it hands the PEI back
	// through the sim.Cont passed to IssueEvent.
	Done func()
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

// Execute performs the operation functionally against the store,
// returning the output operand (nil for zero-output ops). It is invoked
// by whichever PCU the PEI was steered to, at the simulated time the
// computation completes; the PIM directory guarantees no other PEI is
// mid-flight on the same block at that moment.
func Execute(op OpKind, s *memlayout.Store, target uint64, input []byte) []byte {
	switch op {
	case OpInc64:
		s.WriteU64(target, s.ReadU64(target)+1)
		return nil
	case OpMin64:
		v := binary.LittleEndian.Uint64(input)
		if int64(v) < int64(s.ReadU64(target)) {
			s.WriteU64(target, v)
		}
		return nil
	case OpFloatAdd:
		d := math.Float64frombits(binary.LittleEndian.Uint64(input))
		s.WriteF64(target, s.ReadF64(target)+d)
		return nil
	case OpHashProbe:
		key := binary.LittleEndian.Uint64(input)
		out := make([]byte, 9)
		for i := 0; i < HashBucketKeys; i++ {
			off := target + HashBucketKeyOff + uint64(i*HashBucketStride)
			if s.ReadU64(off) == key {
				out[0] = 1
				break
			}
		}
		binary.LittleEndian.PutUint64(out[1:], s.ReadU64(target+HashBucketNextOff))
		return out
	case OpHistBin:
		shift := uint(input[0])
		out := make([]byte, 16)
		for i := 0; i < 16; i++ {
			out[i] = byte(s.ReadU32(target+uint64(i*4)) >> shift)
		}
		return out
	case OpEuclideanDist:
		var sum float32
		for i := 0; i < 16; i++ {
			a := s.ReadF32(target + uint64(i*4))
			b := math.Float32frombits(binary.LittleEndian.Uint32(input[i*4:]))
			d := a - b
			sum += d * d
		}
		out := make([]byte, 4)
		binary.LittleEndian.PutUint32(out, math.Float32bits(sum))
		return out
	case OpDotProduct:
		var sum float64
		for i := 0; i < 4; i++ {
			a := s.ReadF64(target + uint64(i*8))
			b := math.Float64frombits(binary.LittleEndian.Uint64(input[i*8:]))
			sum += a * b
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, math.Float64bits(sum))
		return out
	default:
		panic(fmt.Sprintf("pim: unknown op %d", op))
	}
}

// U64Input encodes an 8-byte input operand.
func U64Input(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// F64Input encodes a double input operand.
func F64Input(v float64) []byte { return U64Input(math.Float64bits(v)) }
