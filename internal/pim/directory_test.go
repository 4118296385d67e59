package pim

import (
	"math/rand"
	"testing"

	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

func newTestDirectory(entries int, ideal bool) (*sim.Kernel, *Directory) {
	k := sim.NewKernel()
	return k, NewDirectory(k, entries, 2, ideal, stats.NewRegistry())
}

func TestReadersShareEntry(t *testing.T) {
	k, d := newTestDirectory(16, false)
	granted := 0
	d.AcquireEvent(0x40, false, sim.Call(func() { granted++ }))
	d.AcquireEvent(0x40, false, sim.Call(func() { granted++ }))
	k.Run()
	if granted != 2 {
		t.Fatalf("granted = %d, want 2 concurrent readers", granted)
	}
}

func TestWriterExcludesWriter(t *testing.T) {
	k, d := newTestDirectory(16, false)
	var order []int
	d.AcquireEvent(0x40, true, sim.Call(func() { order = append(order, 1) }))
	d.AcquireEvent(0x40, true, sim.Call(func() { order = append(order, 2) }))
	k.Run()
	if len(order) != 1 {
		t.Fatalf("second writer granted while first holds lock: %v", order)
	}
	d.Release(0x40, true)
	k.Run()
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("second writer not granted after release: %v", order)
	}
}

func TestWriterWaitsForReaders(t *testing.T) {
	k, d := newTestDirectory(16, false)
	writerIn := false
	d.AcquireEvent(0x40, false, sim.Call(func() {}))
	d.AcquireEvent(0x40, false, sim.Call(func() {}))
	k.Run()
	d.AcquireEvent(0x40, true, sim.Call(func() { writerIn = true }))
	k.Run()
	if writerIn {
		t.Fatal("writer granted while readers active")
	}
	d.Release(0x40, false)
	k.Run()
	if writerIn {
		t.Fatal("writer granted with one reader still active")
	}
	d.Release(0x40, false)
	k.Run()
	if !writerIn {
		t.Fatal("writer not granted after readers drained")
	}
}

func TestWaitingWriterBarsNewReaders(t *testing.T) {
	k, d := newTestDirectory(16, false)
	var events []string
	d.AcquireEvent(0x40, false, sim.Call(func() { events = append(events, "r1") }))
	k.Run()
	d.AcquireEvent(0x40, true, sim.Call(func() { events = append(events, "w") }))
	d.AcquireEvent(0x40, false, sim.Call(func() { events = append(events, "r2") }))
	k.Run()
	if len(events) != 1 {
		t.Fatalf("events = %v; writer must wait and bar r2", events)
	}
	d.Release(0x40, false) // r1 done -> writer in
	k.Run()
	if len(events) != 2 || events[1] != "w" {
		t.Fatalf("events = %v; want writer next (no reader overtaking)", events)
	}
	d.Release(0x40, true)
	k.Run()
	if len(events) != 3 || events[2] != "r2" {
		t.Fatalf("events = %v; r2 should follow writer", events)
	}
}

func TestAliasedBlocksSerialize(t *testing.T) {
	// With 2 entries the 1-bit fold is the parity of the block number:
	// blocks 0 (0b00) and 3 (0b11) both fold to 0 and alias.
	k, d := newTestDirectory(2, false)
	granted2 := false
	d.AcquireEvent(0*64, true, sim.Call(func() {}))
	d.AcquireEvent(3*64, true, sim.Call(func() { granted2 = true }))
	k.Run()
	if granted2 {
		t.Fatal("aliasing writers should serialize (false positive)")
	}
	d.Release(0*64, true)
	k.Run()
	if !granted2 {
		t.Fatal("aliased writer never granted")
	}
}

func TestIdealDirectoryNoAliasing(t *testing.T) {
	k, d := newTestDirectory(0, true)
	granted := 0
	for blk := uint64(0); blk < 100; blk++ {
		d.AcquireEvent(blk*64, true, sim.Call(func() { granted++ }))
	}
	k.Run()
	if granted != 100 {
		t.Fatalf("granted = %d, want 100 (distinct blocks never alias)", granted)
	}
	for blk := uint64(0); blk < 100; blk++ {
		d.Release(blk*64, true)
	}
	if d.OutstandingWriters() != 0 {
		t.Fatal("writer accounting leaked")
	}
}

func TestFenceImmediateWithoutWriters(t *testing.T) {
	k, d := newTestDirectory(16, false)
	d.AcquireEvent(0x40, false, sim.Call(func() {})) // reader does not block pfence
	k.Run()
	fenced := false
	d.FenceEvent(sim.Call(func() { fenced = true }))
	k.Run()
	if !fenced {
		t.Fatal("fence must not wait for readers")
	}
}

func TestFenceWaitsForAllWriters(t *testing.T) {
	k, d := newTestDirectory(16, false)
	d.AcquireEvent(0x40, true, sim.Call(func() {}))
	d.AcquireEvent(0x80, true, sim.Call(func() {}))
	k.Run()
	fenced := false
	d.FenceEvent(sim.Call(func() { fenced = true }))
	k.Run()
	if fenced {
		t.Fatal("fence fired with writers outstanding")
	}
	d.Release(0x40, true)
	k.Run()
	if fenced {
		t.Fatal("fence fired with one writer outstanding")
	}
	d.Release(0x80, true)
	k.Run()
	if !fenced {
		t.Fatal("fence never fired")
	}
}

func TestFenceCoversQueuedWriters(t *testing.T) {
	k, d := newTestDirectory(16, false)
	w2done := false
	d.AcquireEvent(0x40, true, sim.Call(func() {}))
	d.AcquireEvent(0x40, true, sim.Call(func() { w2done = true })) // queued
	k.Run()
	fenced := false
	d.FenceEvent(sim.Call(func() { fenced = true }))
	d.Release(0x40, true) // w2 now runs
	k.Run()
	if !w2done {
		t.Fatal("queued writer never granted")
	}
	if fenced {
		t.Fatal("fence fired before queued writer completed")
	}
	d.Release(0x40, true)
	k.Run()
	if !fenced {
		t.Fatal("fence never fired after queued writer")
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	_, d := newTestDirectory(16, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Release(0x40, true)
}

// Property: under random interleavings of acquires and releases, the
// invariant holds that no entry ever has a writer concurrently with any
// other holder, and every acquire is eventually granted.
func TestDirectoryInvariantUnderRandomLoad(t *testing.T) {
	k, d := newTestDirectory(8, false)
	rng := rand.New(rand.NewSource(99))
	type held struct {
		target uint64
		writer bool
	}
	var active []held
	granted, issued := 0, 0
	violation := false

	countHolders := func(target uint64) (readers, writers int) {
		for _, h := range active {
			// Aliasing means same-entry conflicts; approximate by block
			// since aliased blocks only over-serialize (safe).
			if h.target == target {
				if h.writer {
					writers++
				} else {
					readers++
				}
			}
		}
		return
	}

	for i := 0; i < 400; i++ {
		if len(active) > 0 && rng.Intn(2) == 0 {
			idx := rng.Intn(len(active))
			h := active[idx]
			active = append(active[:idx], active[idx+1:]...)
			d.Release(h.target, h.writer)
			k.Run()
			continue
		}
		target := uint64(rng.Intn(16)) * 64
		writer := rng.Intn(2) == 0
		issued++
		d.AcquireEvent(target, writer, sim.Call(func() {
			r, w := countHolders(target)
			if writer && (r > 0 || w > 0) {
				violation = true
			}
			if !writer && w > 0 {
				violation = true
			}
			granted++
			active = append(active, held{target, writer})
		}))
		k.Run()
	}
	for len(active) > 0 {
		h := active[0]
		active = active[1:]
		d.Release(h.target, h.writer)
		k.Run()
	}
	if violation {
		t.Fatal("atomicity invariant violated")
	}
	if granted != issued {
		t.Fatalf("granted %d of %d acquires", granted, issued)
	}
}
