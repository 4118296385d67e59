package hmc

import (
	"fmt"

	"pimsim/internal/snap"
)

// SnapshotTo serializes one vault: its response-ordering sequence, the
// TSV link, and its DRAM controller. Transaction pools are recycling
// capacity only and are not serialized.
func (v *Vault) SnapshotTo(w *snap.Writer) {
	w.Section("VALT")
	w.U32(v.respSeq)
	v.TSV.SnapshotTo(w)
	v.Ctrl.SnapshotTo(w)
}

// RestoreFrom loads vault state saved by SnapshotTo.
func (v *Vault) RestoreFrom(r *snap.Reader) {
	r.Section("VALT")
	v.respSeq = r.U32()
	v.TSV.RestoreFrom(r)
	v.Ctrl.RestoreFrom(r)
}

// SnapshotTo serializes the chain: the request link, response-link
// serialization horizon and occupancy, the dispatch pressure averages
// with their decay anchor, the request packet count, and every vault.
// The response arbitration batch must be empty — a packet parked there
// means the host side has undelivered work and the machine is not
// quiescent.
func (ch *Chain) SnapshotTo(w *snap.Writer) {
	w.Section("CHN ")
	if len(ch.batch) != 0 {
		w.Fail(fmt.Errorf("%w: chain has %d responses awaiting arbitration", snap.ErrNotQuiescent, len(ch.batch)))
		return
	}
	ch.Req.SnapshotTo(w)
	w.I64(ch.resNextFree)
	w.I64(ch.ResBusy)
	w.F64(ch.cReq)
	w.F64(ch.cRes)
	w.I64(ch.lastDecay)
	// The format's u32 request-sequence slot holds the request packet
	// count; restore skips it, since the registry restores the counter.
	w.U32(uint32(ch.cReqPackets.Get()))
	w.Int(len(ch.Cubes))
	for _, cube := range ch.Cubes {
		w.Int(len(cube.Vaults))
		for _, v := range cube.Vaults {
			v.SnapshotTo(w)
		}
	}
}

// RestoreFrom loads chain state saved by SnapshotTo into a chain of
// identical topology.
func (ch *Chain) RestoreFrom(r *snap.Reader) {
	r.Section("CHN ")
	if len(ch.batch) != 0 {
		r.Fail(fmt.Errorf("%w: restore target chain has %d responses awaiting arbitration", snap.ErrNotQuiescent, len(ch.batch)))
		return
	}
	ch.Req.RestoreFrom(r)
	ch.resNextFree = r.I64()
	ch.ResBusy = r.I64()
	ch.cReq = r.F64()
	ch.cRes = r.F64()
	ch.lastDecay = r.I64()
	r.U32() // request packet count: the registry restores it
	cubes := r.Int()
	if r.Err() != nil {
		return
	}
	if cubes != len(ch.Cubes) {
		r.Fail(fmt.Errorf("hmc: chain has %d cubes, snapshot has %d", len(ch.Cubes), cubes))
		return
	}
	for _, cube := range ch.Cubes {
		vaults := r.Int()
		if r.Err() != nil {
			return
		}
		if vaults != len(cube.Vaults) {
			r.Fail(fmt.Errorf("hmc: cube %d has %d vaults, snapshot has %d", cube.Index, len(cube.Vaults), vaults))
			return
		}
		for _, v := range cube.Vaults {
			v.RestoreFrom(r)
		}
	}
}
