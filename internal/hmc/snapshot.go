package hmc

import (
	"fmt"

	"pimsim/internal/snap"
)

// Snap codes one vault: its response-ordering sequence, the TSV link,
// and its DRAM controller. Transaction pools are recycling capacity
// only and are not serialized.
func (v *Vault) Snap(c *snap.Coder) {
	c.Section("VALT")
	c.U32(&v.respSeq)
	v.TSV.Snap(c)
	v.Ctrl.Snap(c)
}

// Snap codes the chain: the request link, response-link serialization
// horizon and occupancy, the dispatch pressure averages with their
// decay anchor, the request packet count, and every vault of an
// identical topology. The response arbitration batch must be empty on
// both sides — a packet parked there means the host side has
// undelivered work and the machine is not quiescent.
func (ch *Chain) Snap(c *snap.Coder) {
	c.Section("CHN ")
	if len(ch.batch) != 0 {
		c.Fail(fmt.Errorf("%w: chain has %d responses awaiting arbitration", snap.ErrNotQuiescent, len(ch.batch)))
		return
	}
	ch.Req.Snap(c)
	c.I64(&ch.resNextFree)
	c.I64(&ch.ResBusy)
	c.F64(&ch.cReq)
	c.F64(&ch.cRes)
	c.I64(&ch.lastDecay)
	// The format's u32 request-sequence slot holds the request packet
	// count. Decoding discards it: the registry restores the counter.
	packets := uint32(ch.cReqPackets.Get())
	c.U32(&packets)
	c.Expect("hmc: chain cubes", len(ch.Cubes))
	for _, cube := range ch.Cubes {
		c.Expect("hmc: cube vaults", len(cube.Vaults))
		for _, v := range cube.Vaults {
			v.Snap(c)
		}
	}
}
