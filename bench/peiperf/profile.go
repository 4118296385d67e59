package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the part of the pprof format (a gzipped
// perftools.profiles.Profile protobuf) that layer attribution needs:
// samples, locations with their inlined lines, functions and the string
// table. Everything else in the message is skipped.

// profile is a decoded CPU profile: each sample's stack as function
// names, innermost first, with its CPU time.
type profile struct {
	stacks [][]string
	nanos  []int64
}

// internalPrefix marks the simulator's own packages.
const internalPrefix = "pimsim/internal/"

// layerOf names the simulator package a function belongs to, or "" for
// a function outside pimsim/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// layerNanos assigns each sample to the innermost pimsim/internal frame
// on its stack, or to "runtime" when there is none (GC workers, the
// scheduler, the benchmark's own code).
func (p *profile) layerNanos() map[string]int64 {
	out := make(map[string]int64)
	for i, st := range p.stacks {
		layer := "runtime"
		for _, fn := range st {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += p.nanos[i]
	}
	return out
}

// nanosUnder sums the CPU time of samples with any frame matching fn.
func (p *profile) nanosUnder(match func(fn string) bool) int64 {
	var sum int64
	for i, st := range p.stacks {
		for _, fn := range st {
			if match(fn) {
				sum += p.nanos[i]
				break
			}
		}
	}
	return sum
}

// parseProfile decodes gzipped pprof bytes as written by
// runtime/pprof.StartCPUProfile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		strs      []string
		types     []uint64 // sample_type[i].type as string index
		samples   []sample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → name string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; take the cpu
	// column, or the last one if no type says "cpu".
	col := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			col = i
		}
	}
	p := &profile{}
	for _, s := range samples {
		if col < 0 || col >= len(s.values) {
			return nil, errors.New("profile: sample has no value for the cpu column")
		}
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				st = append(st, str(funcNames[fn]))
			}
		}
		p.stacks = append(p.stacks, st)
		p.nanos = append(p.nanos, int64(s.values[col]))
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (data) or not (v).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
