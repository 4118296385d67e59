package pim

import (
	"testing"

	"pimsim/internal/hmc"
	"pimsim/internal/sim"
)

// The pooled-transaction lifecycle rules (DESIGN.md §11): a release
// must scrub every field so the next acquisition starts clean, and a
// double release must panic rather than corrupt the free list.

func TestPEITxnPoolReuseCarriesNoStaleState(t *testing.T) {
	p := &PMU{}
	tx := p.getTxn()
	tx.pei = &PEI{Op: OpInc64}
	tx.core = 3
	tx.done = sim.Call(func() {})
	tx.start = 42
	tx.writer = true
	tx.compute = 9
	tx.outBytes = 8
	tx.locked = true
	tx.pending = 2
	tx.pcu = &PCU{}
	tx.dt = &hmc.Txn{}
	p.putTxn(tx)

	got := p.getTxn()
	if got != tx {
		t.Fatal("pool did not recycle the released transaction")
	}
	if got.p != p {
		t.Fatal("recycled transaction lost its owner")
	}
	if got.pei != nil || got.core != 0 || got.done.H != nil || got.start != 0 || got.writer || got.compute != 0 ||
		got.outBytes != 0 || got.locked || got.pending != 0 || got.pcu != nil || got.dt != nil {
		t.Fatalf("recycled transaction carries stale state: %+v", got)
	}
}

func TestPEITxnDoubleReleasePanics(t *testing.T) {
	p := &PMU{}
	tx := p.getTxn()
	p.putTxn(tx)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.putTxn(tx)
}

func TestDirTxnDoubleReleasePanics(t *testing.T) {
	d := &Directory{}
	tx := d.getTxn()
	d.putTxn(tx)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	d.putTxn(tx)
}
