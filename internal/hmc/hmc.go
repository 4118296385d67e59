// Package hmc models the 3D-stacked memory system: Hybrid Memory Cubes
// composed of vaults (vertical DRAM partitions with a per-vault DRAM
// controller on the logic die and a TSV bundle to the DRAM dies), and the
// daisy-chained, packetized off-chip links connecting the host to the
// cubes. Request and response directions are separate channels, which is
// what makes the paper's balanced-dispatch optimization (§7.4) possible.
package hmc

import (
	"math"

	"pimsim/internal/addr"
	"pimsim/internal/dram"
	"pimsim/internal/sim"
	"pimsim/internal/stats"
)

// Vault is one vertical DRAM partition plus its logic-die controller.
type Vault struct {
	cTSVBytes stats.Handle
	Ctrl      *dram.Controller
	// TSV is the vertical link between the logic die and the DRAM dies;
	// every block moved between a vault PCU (or the link interface) and
	// DRAM crosses it.
	TSV *sim.Link
	// Index is the global vault number (cube*vaultsPerCube + vault).
	Index int

	// respSeq numbers this vault's responses; together with the vault
	// index it forms the canonical key that orders same-cycle response
	// arrivals at the host (see Chain.flushResponses).
	respSeq uint32

	free []*vaultTxn //peilint:allow snapcomplete pool of recycled block-transfer transactions: capacity, not state
}

// vaultTxn threads one block transfer through its two timed legs (DRAM
// access and TSV crossing). The vault owns the pool; the transaction is
// released inside its final stage.
type vaultTxn struct {
	v    *Vault
	bank int
	row  uint64
	done sim.Cont
}

const (
	// vaultStageTSVOut: a read's DRAM access finished; ship the block
	// across the TSVs to the logic die, then hand off to done.
	vaultStageTSVOut = iota
	// vaultStageDRAMWrite: a write's block arrived over the TSVs;
	// enqueue the DRAM write, with done riding on its completion.
	vaultStageDRAMWrite
)

func (t *vaultTxn) OnEvent(arg sim.EventArg) {
	v, done := t.v, t.done
	switch arg.N {
	case vaultStageTSVOut:
		v.putTxn(t)
		v.TSV.SendEvent(addr.BlockBytes, done.H, done.Arg)
	default:
		bank, row := t.bank, t.row
		v.putTxn(t)
		v.Ctrl.EnqueueEvent(bank, row, true, done)
	}
}

func (v *Vault) getTxn() *vaultTxn {
	if n := len(v.free); n > 0 {
		t := v.free[n-1]
		v.free = v.free[:n-1]
		t.v = v
		return t
	}
	return &vaultTxn{v: v}
}

// putTxn recycles a finished transaction; the nil v field marks it free
// so a double release panics instead of corrupting the pool.
func (v *Vault) putTxn(t *vaultTxn) {
	if t.v == nil {
		panic("hmc: vault transaction double-released")
	}
	*t = vaultTxn{}
	v.free = append(v.free, t)
}

// ReadBlockEvent fetches one 64-byte block from DRAM to the logic die
// (DRAM access, then a TSV transfer) and invokes done on completion.
func (v *Vault) ReadBlockEvent(loc addr.Location, done sim.Cont) {
	v.cTSVBytes.Add(addr.BlockBytes)
	t := v.getTxn()
	t.done = done
	v.Ctrl.EnqueueEvent(loc.Bank, loc.Row, false, sim.Cont{H: t, Arg: sim.EventArg{N: vaultStageTSVOut}})
}

// WriteBlockEvent stores one block from the logic die into DRAM (TSV
// transfer, then the DRAM write) and invokes done when the write has
// been restored.
func (v *Vault) WriteBlockEvent(loc addr.Location, done sim.Cont) {
	v.cTSVBytes.Add(addr.BlockBytes)
	t := v.getTxn()
	t.bank = loc.Bank
	t.row = loc.Row
	t.done = done
	v.TSV.SendEvent(addr.BlockBytes, t, sim.EventArg{N: vaultStageDRAMWrite})
}

// Cube is one HMC package.
type Cube struct {
	Index  int
	Vaults []*Vault
}

// Config carries the parameters the chain needs; it is a subset of the
// machine config to keep this package free of higher-level imports.
type Config struct {
	Mapping           addr.Mapping
	Timing            dram.Timing
	LinkBytesPerCycle float64
	LinkLatency       sim.Cycle
	HopLatency        sim.Cycle
	TSVBytesPerCycle  float64
	TSVLatency        sim.Cycle
	PacketHeaderBytes int
	// DispatchWindowCyc is the halving period for the request/response
	// pressure counters (0 disables tracking).
	DispatchWindowCyc sim.Cycle
}

// Chain is the host-side view of the daisy-chained memory system: one
// request link and one response link shared by all cubes, plus the cubes
// themselves.
//
// The request link is sender-arbitrated at the host; the response link
// is a shared channel with many senders (every vault), so it is
// receiver-arbitrated: responses propagate to the host end first (cube
// hops plus link latency, modeled vault-side) and serialize on arrival.
// Same-cycle arrivals are ordered by the canonical (vault, response
// sequence) key, so the response path does not depend on event-queue
// tie order.
type Chain struct {
	k     *sim.Kernel
	cfg   Config
	Req   *sim.Link
	Cubes []*Cube

	// Per-packet byte/packet counters, resolved once at construction.
	cReqBytes, cReqPackets stats.Handle
	cResBytes, cResPackets stats.Handle

	// Response-link serialization state (host side). ResBusy accumulates
	// occupied cycles like Link.Busy does for the request direction.
	resNextFree sim.Cycle
	ResBusy     sim.Cycle

	// batch collects response packets that reached the host end on the
	// same cycle, awaiting canonical ordering; it is flushed lazily by
	// the next arrival and, failing that, by a guard event one cycle
	// later (see Chain.OnEvent).
	batch      []*Txn
	batchCycle sim.Cycle //peilint:allow snapcomplete meaningful only while batch is non-empty, which quiescence forbids on both sides

	// cReq/cRes are the paper's C_req/C_res flit counters, halved every
	// DispatchWindowCyc to form an exponential moving average. Decay is
	// applied lazily (on read and update) so an idle simulation can
	// drain its event queue.
	cReq, cRes float64
	lastDecay  sim.Cycle

	free []*Txn //peilint:allow snapcomplete pool of recycled link transactions: capacity, not state
}

// NewChain builds the memory system described by cfg on kernel k.
func NewChain(k *sim.Kernel, cfg Config, reg *stats.Registry) *Chain {
	ch := &Chain{
		k:           k,
		cfg:         cfg,
		Req:         sim.NewLink(k, cfg.LinkBytesPerCycle, cfg.LinkLatency),
		cReqBytes:   reg.Counter("offchip.req.bytes"),
		cReqPackets: reg.Counter("offchip.req.packets"),
		cResBytes:   reg.Counter("offchip.res.bytes"),
		cResPackets: reg.Counter("offchip.res.packets"),
	}
	for c := 0; c < cfg.Mapping.Cubes; c++ {
		cube := &Cube{Index: c}
		for v := 0; v < cfg.Mapping.VaultsPerCube; v++ {
			vault := &Vault{
				cTSVBytes: reg.Counter("tsv.bytes"),
				Ctrl:      dram.NewController(k, cfg.Mapping.BanksPerVault, cfg.Timing, reg, "dram."),
				TSV:       sim.NewLink(k, cfg.TSVBytesPerCycle, cfg.TSVLatency),
				Index:     c*cfg.Mapping.VaultsPerCube + v,
			}
			cube.Vaults = append(cube.Vaults, vault)
		}
		ch.Cubes = append(ch.Cubes, cube)
	}
	return ch
}

// decayPressure applies any halvings that have elapsed since the last
// update.
func (ch *Chain) decayPressure() {
	w := ch.cfg.DispatchWindowCyc
	if w <= 0 {
		return
	}
	now := ch.k.Now()
	for ch.lastDecay+w <= now {
		ch.cReq /= 2
		ch.cRes /= 2
		ch.lastDecay += w
		if ch.cReq == 0 && ch.cRes == 0 {
			// Skip ahead; nothing left to decay.
			n := (now - ch.lastDecay) / w
			ch.lastDecay += n * w
			break
		}
	}
}

// VaultFor returns the vault owning address a.
func (ch *Chain) VaultFor(a uint64) (*Vault, addr.Location) {
	loc := ch.cfg.Mapping.Locate(a)
	return ch.Cubes[loc.Cube].Vaults[loc.Vault], loc
}

// ReqPressure and ResPressure expose the moving-average flit counters
// used by balanced dispatch.
func (ch *Chain) ReqPressure() float64 { ch.decayPressure(); return ch.cReq }
func (ch *Chain) ResPressure() float64 { ch.decayPressure(); return ch.cRes }

// VaultVisitor receives a delivered request at the target vault. The
// visitor is the caller's own in-flight state: it reads the transaction
// (vault, location) and must eventually call Txn.Respond exactly once
// to route the reply back and release the transaction.
type VaultVisitor interface {
	AtVault(t *Txn)
}

// Command is a request packet's command: an ordinary block transfer,
// or the paper's PEI extension (§4.2), which executes a PIM operation
// at the target vault's PCU.
type Command uint8

const (
	CmdRead Command = iota
	CmdWrite
	CmdPEI
)

// packetBytes is the size on the link of a packet carrying payload
// bytes: the configured header (header plus tail framing, §7.4 and
// footnote 7) plus the payload. Functional values live in the memlayout
// store, so packets are sized, never serialized.
func (ch *Chain) packetBytes(payload int) int { return ch.cfg.PacketHeaderBytes + payload }

// Txn is one in-flight request/response transaction on the chain: it
// crosses the request link and the cube hops, hands itself to the
// visitor at the vault, and routes the reply over the response link.
// Transactions are pooled by the chain, which releases one when its
// response enters the response link.
type Txn struct {
	ch      *Chain
	v       *Vault
	loc     addr.Location
	cmd     Command
	hop     sim.Cycle
	visitor VaultVisitor
	done    sim.Cont // chain-level completion for Read/Write commands

	respBytes int
	respDone  sim.Cont
	// rkey is the canonical response-arbitration key, assigned when the
	// response is issued at the vault: vault index in the high bits, the
	// vault's response sequence in the low bits. Same-cycle arrivals at
	// the host serialize in rkey order.
	rkey uint64
}

// Vault returns the target vault; Loc its DRAM location.
func (t *Txn) Vault() *Vault      { return t.v }
func (t *Txn) Loc() addr.Location { return t.loc }

const (
	// chainStageHopIn: the request left the shared link; cube-hop
	// latency to the target cube comes next.
	chainStageHopIn = iota
	// chainStageAtVault: hand the request to the visitor or the
	// built-in read/write handling.
	chainStageAtVault
	// chainStageHopOut: the response finished its cube hops; propagate
	// across the link to the host end (the response direction is
	// receiver-arbitrated, so serialization happens on arrival).
	chainStageHopOut
	// chainStageResArrive: the response reached the host end of the
	// link; join the current cycle's arbitration batch.
	chainStageResArrive
	// chainStageBlockRead: a CmdRead's vault access finished; respond
	// with the block.
	chainStageBlockRead
	// chainStageBlockWritten: a CmdWrite's DRAM write restored; the
	// completion notification rides the header-only ack back to the
	// host (the host cannot observe the restore any earlier).
	chainStageBlockWritten
)

func (t *Txn) OnEvent(arg sim.EventArg) {
	switch arg.N {
	case chainStageHopIn:
		t.ch.k.ScheduleEvent(t.hop, t, sim.EventArg{N: chainStageAtVault})
	case chainStageAtVault:
		switch {
		case t.visitor != nil:
			t.visitor.AtVault(t)
		case t.cmd == CmdRead:
			t.v.ReadBlockEvent(t.loc, sim.Cont{H: t, Arg: sim.EventArg{N: chainStageBlockRead}})
		case t.cmd == CmdWrite:
			t.v.WriteBlockEvent(t.loc, sim.Cont{H: t, Arg: sim.EventArg{N: chainStageBlockWritten}})
		default:
			panic("hmc: request delivered with no visitor")
		}
	case chainStageHopOut:
		// Off-chip link arrivals take the kernel's early lane, ahead of
		// same-cycle host events (DESIGN.md §12).
		k := t.ch.k
		k.AtEventEarly(k.Now()+t.ch.cfg.LinkLatency, t, sim.EventArg{N: chainStageResArrive})
	case chainStageResArrive:
		t.ch.resArrive(t)
	case chainStageBlockRead:
		t.Respond(addr.BlockBytes, t.done)
	default: // chainStageBlockWritten
		t.Respond(0, t.done)
	}
}

// Respond sends a response packet of respBytes payload (header added)
// back to the host, invoking done on delivery, and schedules the
// transaction's release. It must be called exactly once per delivered
// transaction. Respond runs vault-side: it assigns the canonical
// arbitration key and starts the cube hops; traffic and pressure
// accounting happen at the host when the packet arrives.
func (t *Txn) Respond(respBytes int, done sim.Cont) {
	v := t.v
	t.respBytes = t.ch.packetBytes(respBytes)
	t.respDone = done
	v.respSeq++
	t.rkey = uint64(v.Index)<<32 | uint64(v.respSeq)
	t.ch.k.ScheduleEvent(t.hop, t, sim.EventArg{N: chainStageHopOut})
}

// resArrive joins a response packet to the current cycle's arbitration
// batch at the host end of the response link. The first packet of a
// cycle schedules a guard flush one cycle later; a packet arriving on a
// later cycle flushes eagerly. Same-cycle arrivals therefore always
// serialize together, in canonical order, whichever path flushes them.
func (ch *Chain) resArrive(t *Txn) {
	now := ch.k.Now()
	if len(ch.batch) > 0 && ch.batchCycle != now {
		ch.flushResponses()
	}
	if len(ch.batch) == 0 {
		ch.batchCycle = now
		ch.k.AtEvent(now+1, ch, sim.EventArg{N: now})
	}
	ch.batch = append(ch.batch, t)
}

// OnEvent is the guard flush: arg.N carries the batch cycle it guards,
// so a batch already flushed by a later arrival (which reuses the batch
// slice for a new cycle) is left alone.
func (ch *Chain) OnEvent(arg sim.EventArg) {
	if len(ch.batch) > 0 && ch.batchCycle == arg.N {
		ch.flushResponses()
	}
}

// flushResponses serializes the batched same-cycle arrivals onto the
// host end of the response link in canonical (vault, sequence) order,
// accounting traffic and pressure and delivering each completion when
// its serialization slot ends. Propagation was already paid before
// arrival, so no further latency is added. The canonical sort makes the
// response path independent of event-queue tie order.
func (ch *Chain) flushResponses() {
	batch := ch.batch
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j-1].rkey > batch[j].rkey; j-- {
			batch[j-1], batch[j] = batch[j], batch[j-1]
		}
	}
	start := ch.batchCycle
	if ch.resNextFree > start {
		start = ch.resNextFree
	}
	for _, t := range batch {
		total, done := t.respBytes, t.respDone
		occ := sim.Cycle(math.Ceil(float64(total) / ch.cfg.LinkBytesPerCycle))
		end := start + occ
		ch.resNextFree = end
		ch.ResBusy += occ
		ch.decayPressure()
		ch.cRes += float64((total + sim.FlitBytes - 1) / sim.FlitBytes)
		ch.cResBytes.Add(int64(total))
		ch.cResPackets.Inc()
		ch.putTxn(t)
		if done.H != nil {
			ch.k.AtEvent(end, done.H, done.Arg)
		}
		start = end
	}
	for i := range batch {
		batch[i] = nil
	}
	ch.batch = batch[:0]
}

func (ch *Chain) getTxn() *Txn {
	if n := len(ch.free); n > 0 {
		t := ch.free[n-1]
		ch.free = ch.free[:n-1]
		t.ch = ch
		return t
	}
	return &Txn{ch: ch}
}

// putTxn recycles a completed transaction; the nil ch field marks it
// free so a double release (e.g. a visitor calling Respond twice)
// panics.
func (ch *Chain) putTxn(t *Txn) {
	if t.ch == nil {
		panic("hmc: chain transaction double-released")
	}
	*t = Txn{}
	ch.free = append(ch.free, t)
}

// DeliverEvent sends a request packet carrying payloadBytes of operand
// or write data to the vault owning address a. For CmdRead/CmdWrite
// with a nil visitor the chain performs the vault access itself and
// invokes done per ReadEvent/WriteEvent semantics; otherwise the
// visitor is invoked on arrival with the transaction and must call
// Txn.Respond. Both directions are sized by packetBytes; per-cube hop
// latency applies in each direction. Byte counts land in the shared
// registry under offchip.req/res.
func (ch *Chain) DeliverEvent(a uint64, cmd Command, payloadBytes int, visitor VaultVisitor, done sim.Cont) {
	v, loc := ch.VaultFor(a)
	t := ch.getTxn()
	t.v = v
	t.loc = loc
	t.cmd = cmd
	t.visitor = visitor
	t.done = done
	reqBytes := ch.packetBytes(payloadBytes)
	t.hop = ch.cfg.HopLatency * sim.Cycle(loc.Cube)
	ch.decayPressure()
	ch.cReq += float64((reqBytes + sim.FlitBytes - 1) / sim.FlitBytes)
	ch.cReqBytes.Add(int64(reqBytes))
	ch.cReqPackets.Inc()
	ch.Req.SendEventEarly(reqBytes, t, sim.EventArg{N: chainStageHopIn})
}

// ReadEvent performs a normal cache-block fill from memory: header-only
// request, DRAM read, 64 B + header response. done runs when the block
// arrives back at the host.
func (ch *Chain) ReadEvent(a uint64, done sim.Cont) {
	ch.DeliverEvent(a, CmdRead, 0, nil, done)
}

// WriteEvent performs a block writeback to memory: header + 64 B
// request, DRAM write, header-only acknowledgement. done (which may be
// the zero Cont) runs when the ack, sent once the write is restored in
// DRAM, reaches the host.
func (ch *Chain) WriteEvent(a uint64, done sim.Cont) {
	ch.DeliverEvent(a, CmdWrite, addr.BlockBytes, nil, done)
}

// OffchipBytes reports total bytes moved over the chain in both
// directions, the quantity Figure 7 normalizes.
func (ch *Chain) OffchipBytes() int64 {
	return ch.cReqBytes.Get() + ch.cResBytes.Get()
}
