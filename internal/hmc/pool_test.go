package hmc

import (
	"testing"

	"pimsim/internal/sim"
)

// Pool lifecycle tests for the chain and vault transaction free lists:
// a recycled transaction must carry no state from its previous life,
// and releasing twice must panic instead of corrupting the free list.

func TestChainTxnPoolReuseCarriesNoStaleState(t *testing.T) {
	ch := &Chain{}
	tx := ch.getTxn()
	tx.cmd = CmdPEI
	tx.hop = 7
	tx.done = sim.Call(func() {})
	tx.respBytes = 80
	tx.respDone = sim.Call(func() {})
	tx.rkey = 42
	ch.putTxn(tx)

	got := ch.getTxn()
	if got != tx {
		t.Fatal("pool did not recycle the released transaction")
	}
	if got.ch != ch {
		t.Fatal("recycled transaction lost its owner")
	}
	if got.cmd != 0 || got.hop != 0 ||
		got.done.H != nil || got.respBytes != 0 || got.respDone.H != nil ||
		got.visitor != nil || got.rkey != 0 {
		t.Fatalf("recycled transaction carries stale state: %+v", got)
	}
}

func TestChainTxnDoubleReleasePanics(t *testing.T) {
	ch := &Chain{}
	tx := ch.getTxn()
	ch.putTxn(tx)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	ch.putTxn(tx)
}

func TestVaultTxnDoubleReleasePanics(t *testing.T) {
	v := &Vault{}
	tx := v.getTxn()
	v.putTxn(tx)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	v.putTxn(tx)
}
