package machine

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/pim"
)

// The torture tests drive every PEI kind from every core onto shared
// arrays at once and check the per-block reductions against golden
// values. Because the PIM directory serializes conflicting PEIs and each
// block hosts a single commutative operation, the final values are
// order-independent — any lost update, stale read, or atomicity break
// shows up as a wrong answer.

type blockPlan struct {
	op     pim.OpKind
	inputs []uint64 // operands routed to this block, in issue order
}

func buildTorturePlan(rng *rand.Rand, blocks int) []blockPlan {
	kinds := []pim.OpKind{pim.OpInc64, pim.OpMin64, pim.OpFloatAdd}
	plans := make([]blockPlan, blocks)
	for i := range plans {
		plans[i].op = kinds[rng.Intn(len(kinds))]
	}
	return plans
}

func tortureRun(t *testing.T, mode pim.Mode, seed int64) {
	t.Helper()
	cfg := config.Scaled()
	m := MustNew(cfg, mode)
	rng := rand.New(rand.NewSource(seed))

	const blocks = 64
	const opsPerCore = 300
	base := m.Store.Alloc(blocks*64, 64)
	plans := buildTorturePlan(rng, blocks)
	// Initialize min blocks high so mins always land.
	for b := range plans {
		if plans[b].op == pim.OpMin64 {
			m.Store.WriteU64(base+uint64(b*64), math.MaxInt64)
		}
	}

	var streams []cpu.Stream
	for c := 0; c < cfg.Cores; c++ {
		s := &cpu.SliceStream{}
		for i := 0; i < opsPerCore; i++ {
			b := rng.Intn(blocks)
			target := base + uint64(b*64)
			var p *pim.PEI
			switch plans[b].op {
			case pim.OpInc64:
				p = &pim.PEI{Op: pim.OpInc64, Target: target}
				plans[b].inputs = append(plans[b].inputs, 1)
			case pim.OpMin64:
				v := uint64(rng.Intn(1 << 30))
				p = &pim.PEI{Op: pim.OpMin64, Target: target, Input: pim.U64Input(v)}
				plans[b].inputs = append(plans[b].inputs, v)
			case pim.OpFloatAdd:
				v := float64(rng.Intn(1000)) / 8 // exactly representable
				p = &pim.PEI{Op: pim.OpFloatAdd, Target: target, Input: pim.F64Input(v)}
				plans[b].inputs = append(plans[b].inputs, math.Float64bits(v))
			}
			s.Ops = append(s.Ops, cpu.Op{Kind: cpu.OpPEI, PEI: p})
			// Interleave some plain loads to rattle the coherence
			// machinery (reads never break PEI atomicity).
			if rng.Intn(4) == 0 {
				s.Ops = append(s.Ops, cpu.Op{Kind: cpu.OpLoad, Addr: target})
			}
		}
		s.Ops = append(s.Ops, cpu.Op{Kind: cpu.OpFence})
		streams = append(streams, s)
	}

	if _, err := m.RunContext(context.Background(), streams); err != nil {
		t.Fatal(err)
	}

	for b, plan := range plans {
		addr := base + uint64(b*64)
		switch plan.op {
		case pim.OpInc64:
			want := uint64(len(plan.inputs))
			if got := m.Store.ReadU64(addr); got != want {
				t.Fatalf("%v block %d: inc count %d, want %d", mode, b, got, want)
			}
		case pim.OpMin64:
			want := uint64(math.MaxInt64)
			for _, v := range plan.inputs {
				if v < want {
					want = v
				}
			}
			if got := m.Store.ReadU64(addr); got != want {
				t.Fatalf("%v block %d: min %d, want %d", mode, b, got, want)
			}
		case pim.OpFloatAdd:
			// Eighths sum exactly in float64 at these magnitudes, so
			// even ordering differences cannot change the result.
			var want float64
			for _, v := range plan.inputs {
				want += math.Float64frombits(v)
			}
			if got := m.Store.ReadF64(addr); got != want {
				t.Fatalf("%v block %d: sum %v, want %v", mode, b, got, want)
			}
		}
	}
}

func TestTortureAllModes(t *testing.T) {
	for _, mode := range []pim.Mode{pim.HostOnly, pim.PIMOnly, pim.LocalityAware, pim.IdealHost} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			tortureRun(t, mode, 1234)
		})
	}
}

func TestTortureManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed torture is slow")
	}
	for seed := int64(0); seed < 8; seed++ {
		tortureRun(t, pim.LocalityAware, seed)
	}
}

// Torture the output-operand ops too: hash probes and dot products from
// all cores against a shared read-only region, verifying every output.
func TestTortureReaderOutputs(t *testing.T) {
	cfg := config.Scaled()
	m := MustNew(cfg, pim.LocalityAware)
	rng := rand.New(rand.NewSource(99))

	const buckets = 32
	base := m.Store.Alloc(buckets*64, 64)
	for b := 0; b < buckets; b++ {
		m.Store.WriteU64(base+uint64(b*64)+pim.HashBucketKeyOff, uint64(b)*10+1)
	}

	type probe struct {
		pei  *pim.PEI
		want byte
	}
	var probes []probe
	var streams []cpu.Stream
	for c := 0; c < cfg.Cores; c++ {
		s := &cpu.SliceStream{}
		for i := 0; i < 100; i++ {
			b := rng.Intn(buckets)
			key := uint64(b)*10 + 1
			want := byte(1)
			if rng.Intn(2) == 0 {
				key = 0xFFFF // absent
				want = 0
			}
			p := &pim.PEI{Op: pim.OpHashProbe, Target: base + uint64(b*64), Input: pim.U64Input(key)}
			probes = append(probes, probe{p, want})
			s.Ops = append(s.Ops, cpu.Op{Kind: cpu.OpPEI, PEI: p})
		}
		streams = append(streams, s)
	}
	if _, err := m.RunContext(context.Background(), streams); err != nil {
		t.Fatal(err)
	}
	for i, pr := range probes {
		if len(pr.pei.Output) != 9 || pr.pei.Output[0] != pr.want {
			t.Fatalf("probe %d output %v, want match=%d", i, pr.pei.Output, pr.want)
		}
		if next := binary.LittleEndian.Uint64(pr.pei.Output[1:]); next != 0 {
			t.Fatalf("probe %d next = %#x, want 0", i, next)
		}
	}
}
