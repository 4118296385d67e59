// Package config defines the machine description consumed by the machine
// builder: core counts, cache geometry, interconnect and HMC parameters,
// and the PEI hardware knobs (PCU operand buffers, PMU directory and
// locality monitor sizes). Presets reproduce Table 2 of the paper and a
// scaled-down variant for fast tests.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"pimsim/internal/addr"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	// SizeBytes is total capacity; Ways the associativity. The number of
	// sets is derived and must come out a power of two.
	SizeBytes int
	Ways      int
	// LatencyCycles is the access (hit) latency in CPU cycles.
	LatencyCycles int64
	// MSHRs bounds outstanding misses.
	MSHRs int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (addr.BlockBytes * c.Ways) }

func (c CacheConfig) validate(name string) error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.MSHRs <= 0 || c.LatencyCycles < 0 {
		return fmt.Errorf("config: %s has non-positive parameter: %+v", name, c)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.Ways*addr.BlockBytes != c.SizeBytes {
		return fmt.Errorf("config: %s size %d not divisible into %d-way sets of %d-byte blocks",
			name, c.SizeBytes, c.Ways, addr.BlockBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("config: %s set count %d is not a power of two", name, sets)
	}
	return nil
}

// Config is the complete machine description.
type Config struct {
	// Cores is the number of host processors; IssueWidth is ops issued
	// per core per cycle; WindowSize bounds in-flight memory operations
	// per core (the OoO instruction-window abstraction).
	Cores      int
	IssueWidth int
	WindowSize int

	L1 CacheConfig
	L2 CacheConfig
	L3 CacheConfig
	// L3Banks splits the shared L3 into independently-ported banks.
	L3Banks int

	// NoC models the 2 GHz crossbar: per-port bandwidth in bytes per CPU
	// cycle and one-way latency in CPU cycles.
	NoCBytesPerCycle float64
	NoCLatency       int64

	// Memory geometry.
	Cubes         int
	VaultsPerCube int
	BanksPerVault int
	RowBytes      int
	// InterleaveBlocks: consecutive blocks per cube before rotating.
	InterleaveBlocks int

	// DRAM timing in CPU cycles (13.75 ns at 4 GHz = 55). TREFI/TRFC
	// model refresh (zero TREFI disables it).
	TCL, TRCD, TRP int64
	TREFI, TRFC    int64

	// Off-chip HMC chain: bandwidth per direction in bytes/CPU-cycle and
	// per-hop latency; the chain adds HopLatency per cube index.
	LinkBytesPerCycle float64
	LinkLatency       int64
	HopLatency        int64

	// TSV vertical links per vault.
	TSVBytesPerCycle float64
	TSVLatency       int64

	// Packet framing (HMC-style): header+tail bytes added to every
	// request and response packet.
	PacketHeaderBytes int

	// PCU parameters. MemPCUClockDiv is the clock divisor of memory-side
	// PCUs relative to the CPU clock (2 GHz => 2).
	OperandBufferEntries int
	PCUExecWidth         int
	MemPCUClockDiv       int64

	// PMU parameters.
	DirectoryEntries  int
	DirectoryLatency  int64
	MonitorLatency    int64
	PartialTagBits    uint
	UseIgnoreBit      bool
	IdealDirectory    bool  // infinite entries, zero latency (Ideal-Host, §7.6)
	IdealMonitor      bool  // full tags, zero latency (§7.6)
	BalancedDispatch  bool  // §7.4
	DispatchWindowCyc int64 // halving period of C_req/C_res (10 µs = 40000 cyc)

	// HMC2AtomicsMode models HMC 2.0-style native in-memory atomics
	// (paper footnote 1) as a comparison point: PEIs execute in memory
	// with no PIM directory locking and no host-side coherence actions —
	// the semantics prior PIM work gets by operating on non-cacheable
	// regions. Only meaningful with PIM-Only steering.
	HMC2AtomicsMode bool

	// PrefetchDepth enables a next-N-line prefetcher at each core's L2:
	// every demand L2 miss prefetches the next N blocks. Zero disables.
	// The paper's baseline has no prefetcher; the ablation quantifies how
	// much a prefetching host narrows the PIM advantage on streams.
	PrefetchDepth int

	// Virtual memory (§4.4): when enabled, every core access and every
	// PEI issue translates through a per-core TLB (one translation per
	// PEI, as the single-cache-block restriction guarantees). TLB hits
	// are folded into the L1 pipeline; misses pay TLBMissLatency for the
	// page-table walk.
	EnableVM       bool
	TLBEntries     int
	TLBMissLatency int64

	// MaxOps must be zero. The run's instruction budget (the stand-in
	// for the paper's 2 B-instruction budget) is workloads.Params.OpBudget,
	// enforced in the generators so barriers still complete; Validate
	// rejects a nonzero MaxOps. The field stays only because it is part
	// of the marshalled config that the harness's runDigest hashes:
	// removing it would change every snapshot digest and blob name.
	MaxOps int64
}

// Mapping derives the address mapping from the memory geometry.
func (c *Config) Mapping() addr.Mapping {
	return addr.Mapping{
		Cubes:            c.Cubes,
		VaultsPerCube:    c.VaultsPerCube,
		BanksPerVault:    c.BanksPerVault,
		RowBytes:         c.RowBytes,
		InterleaveBlocks: c.InterleaveBlocks,
	}
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Cores <= 0 || c.IssueWidth <= 0 || c.WindowSize <= 0 {
		return fmt.Errorf("config: core parameters must be positive: cores=%d issue=%d window=%d",
			c.Cores, c.IssueWidth, c.WindowSize)
	}
	if err := c.L1.validate("L1"); err != nil {
		return err
	}
	if err := c.L2.validate("L2"); err != nil {
		return err
	}
	if err := c.L3.validate("L3"); err != nil {
		return err
	}
	if c.L3Banks <= 0 || c.L3.Sets()%c.L3Banks != 0 {
		return fmt.Errorf("config: L3Banks = %d must divide L3 sets %d", c.L3Banks, c.L3.Sets())
	}
	if err := c.Mapping().Validate(); err != nil {
		return err
	}
	if c.NoCBytesPerCycle <= 0 || c.LinkBytesPerCycle <= 0 || c.TSVBytesPerCycle <= 0 {
		return fmt.Errorf("config: link bandwidths must be positive")
	}
	if c.TCL < 0 || c.TRCD < 0 || c.TRP < 0 {
		return fmt.Errorf("config: DRAM timings must be non-negative")
	}
	if c.OperandBufferEntries <= 0 || c.PCUExecWidth <= 0 || c.MemPCUClockDiv <= 0 {
		return fmt.Errorf("config: PCU parameters must be positive")
	}
	if !c.IdealDirectory && c.DirectoryEntries <= 0 {
		return fmt.Errorf("config: DirectoryEntries must be positive (or IdealDirectory)")
	}
	if c.PartialTagBits == 0 || c.PartialTagBits > 32 {
		return fmt.Errorf("config: PartialTagBits = %d out of range", c.PartialTagBits)
	}
	if c.BalancedDispatch && c.DispatchWindowCyc <= 0 {
		return fmt.Errorf("config: DispatchWindowCyc must be positive with BalancedDispatch")
	}
	if c.EnableVM && (c.TLBEntries <= 0 || c.TLBMissLatency < 0) {
		return fmt.Errorf("config: EnableVM requires positive TLBEntries and non-negative TLBMissLatency")
	}
	if c.MaxOps != 0 {
		return fmt.Errorf("config: MaxOps = %d is not supported; bound the run with the workload OpBudget instead", c.MaxOps)
	}
	return nil
}

// Clone returns a deep copy (Config contains no reference types).
func (c *Config) Clone() *Config {
	cp := *c
	return &cp
}

// LoadJSON reads a configuration from a JSON file, layered over the
// baseline preset so files only need to state overrides.
func LoadJSON(path string) (*Config, error) {
	c := Baseline()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
