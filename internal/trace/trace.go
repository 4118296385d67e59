// Package trace records and replays workload op streams. A trace
// decouples workload generation from machine simulation: record a
// workload once (or convert a trace from elsewhere), then replay it onto
// any number of machine configurations. Replayed PEIs execute against a
// zeroed functional store of the recorded size — timing is exact, the
// workload's own functional results are not reproduced (use live runs
// with Verify for that).
//
// Format (little-endian):
//
//	magic "PEITR1\n\x00" | threads u32 | storeSize u64
//	magic "PEITR2\n\x00" | threads u32 | storeSize u64 | digestLen u8 | digest
//	records: thread u8 | kind u8 | payload
//	  kind 0 compute: cycles u32
//	  kind 1 load:    addr u64
//	  kind 2 store:   addr u64
//	  kind 3 pei:     op u8 | target u64 | inputLen u8 | input bytes
//	  kind 4 fence:   —
//	  kind 5 barrier: id u8
//	  kind 6 drain:   —
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pimsim/internal/cpu"
	"pimsim/internal/pim"
)

// Two header versions. v1 is the original digest-less header; v2 adds
// a config-digest record identifying the machine configuration the
// trace was recorded on. Writers emit v2 only when a digest is present,
// so digest-less traces stay readable by pre-v2 tooling, and readers
// accept both.
var (
	magicV1 = [8]byte{'P', 'E', 'I', 'T', 'R', '1', '\n', 0}
	magicV2 = [8]byte{'P', 'E', 'I', 'T', 'R', '2', '\n', 0}
)

const (
	recCompute = iota
	recLoad
	recStore
	recPEI
	recFence
	recBarrier
	recDrain
)

// Writer serializes the op streams of one run.
type Writer struct {
	w        *bufio.Writer
	threads  int
	barriers map[*cpu.Barrier]uint8
	err      error
}

// NewWriter writes a trace header for the given thread count and store
// size (the simulated-memory high-water mark the replayer must allocate).
func NewWriter(w io.Writer, threads int, storeSize uint64) (*Writer, error) {
	return NewWriterDigest(w, threads, storeSize, "")
}

// NewWriterDigest is NewWriter plus an optional config digest recorded
// in the header (see Trace.ConfigDigest). An empty digest writes the
// original v1 header, byte-identical to pre-digest traces.
func NewWriterDigest(w io.Writer, threads int, storeSize uint64, digest string) (*Writer, error) {
	if len(digest) > 255 {
		return nil, fmt.Errorf("trace: config digest longer than 255 bytes")
	}
	bw := bufio.NewWriter(w)
	magic := magicV1
	if digest != "" {
		magic = magicV2
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(threads))
	binary.LittleEndian.PutUint64(hdr[4:], storeSize)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if digest != "" {
		if err := bw.WriteByte(byte(len(digest))); err != nil {
			return nil, err
		}
		if _, err := bw.WriteString(digest); err != nil {
			return nil, err
		}
	}
	return &Writer{w: bw, threads: threads, barriers: make(map[*cpu.Barrier]uint8)}, nil
}

func (t *Writer) put(b []byte) {
	if t.err != nil {
		return
	}
	_, t.err = t.w.Write(b)
}

// Record appends one op from the given thread.
func (t *Writer) Record(thread int, op cpu.Op) {
	if thread < 0 || thread >= t.threads {
		t.err = fmt.Errorf("trace: thread %d out of range", thread)
		return
	}
	var buf [20]byte
	buf[0] = byte(thread)
	switch op.Kind {
	case cpu.OpCompute:
		buf[1] = recCompute
		binary.LittleEndian.PutUint32(buf[2:], uint32(op.Cycles))
		t.put(buf[:6])
	case cpu.OpLoad, cpu.OpStore:
		buf[1] = recLoad
		if op.Kind == cpu.OpStore {
			buf[1] = recStore
		}
		binary.LittleEndian.PutUint64(buf[2:], op.Addr)
		t.put(buf[:10])
	case cpu.OpPEI:
		buf[1] = recPEI
		buf[2] = byte(op.PEI.Op)
		binary.LittleEndian.PutUint64(buf[3:], op.PEI.Target)
		buf[11] = byte(len(op.PEI.Input))
		t.put(buf[:12])
		t.put(op.PEI.Input)
	case cpu.OpFence:
		buf[1] = recFence
		t.put(buf[:2])
	case cpu.OpBarrier:
		id, ok := t.barriers[op.Barrier]
		if !ok {
			if len(t.barriers) >= 255 {
				t.err = fmt.Errorf("trace: too many distinct barriers")
				return
			}
			id = uint8(len(t.barriers))
			t.barriers[op.Barrier] = id
		}
		buf[1] = recBarrier
		buf[2] = id
		t.put(buf[:3])
	case cpu.OpDrain:
		buf[1] = recDrain
		t.put(buf[:2])
	default:
		t.err = fmt.Errorf("trace: unknown op kind %d", op.Kind)
	}
}

// Close flushes the trace.
func (t *Writer) Close() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// RecordingStream wraps a Stream, copying every op into the writer as it
// is consumed.
type RecordingStream struct {
	Inner  cpu.Stream
	Writer *Writer
	Thread int
}

// Next implements cpu.Stream.
func (r *RecordingStream) Next() (cpu.Op, bool) {
	op, ok := r.Inner.Next()
	if ok {
		r.Writer.Record(r.Thread, op)
	}
	return op, ok
}

// Trace is a fully loaded trace ready to replay.
type Trace struct {
	// StoreSize is the simulated-memory size the machine must allocate.
	StoreSize uint64
	// ConfigDigest identifies the machine configuration the trace was
	// recorded on (empty for v1 traces and digest-less recordings).
	// Replays on a different configuration are legitimate — that is the
	// point of traces — but the digest lets tooling flag the mismatch.
	ConfigDigest string
	// PerThread holds each thread's ops in order.
	PerThread [][]cpu.Op
	// barrierParticipants maps trace barrier ids to participant thread
	// sets; barrierObjs holds the shared objects Read installed.
	barrierParticipants map[uint8]map[int]bool
	barrierObjs         map[uint8]*cpu.Barrier
}

// Read loads a trace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magicV1 && m != magicV2 {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	threads := int(binary.LittleEndian.Uint32(hdr[:4]))
	if threads <= 0 || threads > 1024 {
		return nil, fmt.Errorf("trace: implausible thread count %d", threads)
	}
	t := &Trace{
		StoreSize:           binary.LittleEndian.Uint64(hdr[4:]),
		PerThread:           make([][]cpu.Op, threads),
		barrierParticipants: make(map[uint8]map[int]bool),
	}
	if m == magicV2 {
		n, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading config digest: %w", err)
		}
		digest := make([]byte, int(n))
		if _, err := io.ReadFull(br, digest); err != nil {
			return nil, fmt.Errorf("trace: reading config digest: %w", err)
		}
		t.ConfigDigest = string(digest)
	}
	// First pass: raw records with barrier ids; barriers are resolved
	// into shared objects afterwards, once participant counts are known.
	type rawBarrier struct {
		thread int
		index  int
		id     uint8
	}
	var rawBarriers []rawBarrier
	for {
		var pre [2]byte
		if _, err := io.ReadFull(br, pre[:]); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: reading record: %w", err)
		}
		thread := int(pre[0])
		if thread >= threads {
			return nil, fmt.Errorf("trace: record for thread %d of %d", thread, threads)
		}
		var op cpu.Op
		switch pre[1] {
		case recCompute:
			var b [4]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			op = cpu.Op{Kind: cpu.OpCompute, Cycles: int64(binary.LittleEndian.Uint32(b[:]))}
		case recLoad, recStore:
			var b [8]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			kind := cpu.OpLoad
			if pre[1] == recStore {
				kind = cpu.OpStore
			}
			op = cpu.Op{Kind: kind, Addr: binary.LittleEndian.Uint64(b[:])}
		case recPEI:
			var b [10]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, err
			}
			if int(b[0]) >= len(pim.Ops) {
				return nil, fmt.Errorf("trace: PEI opcode %d outside Table 1", b[0])
			}
			input := make([]byte, int(b[9]))
			if _, err := io.ReadFull(br, input); err != nil {
				return nil, err
			}
			op = cpu.Op{Kind: cpu.OpPEI, PEI: &pim.PEI{
				Op:     pim.OpKind(b[0]),
				Target: binary.LittleEndian.Uint64(b[1:9]),
				Input:  input,
			}}
		case recFence:
			op = cpu.Op{Kind: cpu.OpFence}
		case recBarrier:
			id, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			rawBarriers = append(rawBarriers, rawBarrier{thread, len(t.PerThread[thread]), id})
			if t.barrierParticipants[id] == nil {
				t.barrierParticipants[id] = make(map[int]bool)
			}
			t.barrierParticipants[id][thread] = true
			op = cpu.Op{Kind: cpu.OpBarrier} // Barrier filled below
		case recDrain:
			op = cpu.Op{Kind: cpu.OpDrain}
		default:
			return nil, fmt.Errorf("trace: unknown record kind %d", pre[1])
		}
		t.PerThread[thread] = append(t.PerThread[thread], op)
	}
	// Resolve barriers: one shared object per id, sized to its
	// participant count.
	t.barrierObjs = make(map[uint8]*cpu.Barrier)
	for id, parts := range t.barrierParticipants {
		t.barrierObjs[id] = cpu.NewBarrier(len(parts))
	}
	for _, rb := range rawBarriers {
		t.PerThread[rb.thread][rb.index].Barrier = t.barrierObjs[rb.id]
	}
	return t, nil
}

// Streams returns replayable per-thread streams. Each call builds fresh
// barrier objects so a trace can be replayed multiple times.
func (t *Trace) Streams() []cpu.Stream {
	// Re-resolve barriers per replay (Read installed one set; clone by
	// mapping old pointers to new objects sized to the recorded
	// participant counts).
	clones := make(map[*cpu.Barrier]*cpu.Barrier)
	for id, obj := range t.barrierObjs {
		clones[obj] = cpu.NewBarrier(len(t.barrierParticipants[id]))
	}
	streams := make([]cpu.Stream, len(t.PerThread))
	for i, ops := range t.PerThread {
		copied := make([]cpu.Op, len(ops))
		copy(copied, ops)
		for j := range copied {
			if copied[j].Kind == cpu.OpBarrier {
				copied[j].Barrier = clones[copied[j].Barrier]
			}
			if copied[j].Kind == cpu.OpPEI {
				// Fresh PEI instances: replays must not share Output or
				// Done state.
				orig := copied[j].PEI
				copied[j].PEI = &pim.PEI{Op: orig.Op, Target: orig.Target, Input: orig.Input}
			}
		}
		streams[i] = &cpu.SliceStream{Ops: copied}
	}
	return streams
}
