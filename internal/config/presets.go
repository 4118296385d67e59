package config

// Baseline reproduces Table 2 of the paper: 16 four-issue OoO cores at
// 4 GHz, a three-level inclusive hierarchy (32 KB L1D, 256 KB L2,
// 16 MB 16-way L3), a 2 GHz crossbar with 144-bit links, and 8
// daisy-chained HMCs of 16 vaults x 16 banks each.
//
// Clock conversions (CPU clock = 4 GHz):
//   - DRAM tCL = tRCD = tRP = 13.75 ns = 55 cycles.
//   - Crossbar: 144-bit links at 2 GHz = 36 B/2GHz-cycle = 9 B/CPU-cycle.
//   - Off-chip chain: 80 GB/s full duplex = 40 GB/s per direction
//     = 10 B/CPU-cycle per direction.
//   - Vault TSVs: 64 TSVs x 2 Gb/s = 16 GB/s = 4 B/CPU-cycle.
func Baseline() *Config {
	return &Config{
		Cores:      16,
		IssueWidth: 4,
		WindowSize: 64,

		L1:      CacheConfig{SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 4, MSHRs: 16},
		L2:      CacheConfig{SizeBytes: 256 << 10, Ways: 8, LatencyCycles: 12, MSHRs: 16},
		L3:      CacheConfig{SizeBytes: 16 << 20, Ways: 16, LatencyCycles: 30, MSHRs: 64},
		L3Banks: 16,

		NoCBytesPerCycle: 9,
		NoCLatency:       8,

		Cubes:            8,
		VaultsPerCube:    16,
		BanksPerVault:    16,
		RowBytes:         8 << 10,
		InterleaveBlocks: 1,

		TCL: 55, TRCD: 55, TRP: 55,
		TREFI: 31200, TRFC: 1400, // 7.8 us / 350 ns at 4 GHz

		LinkBytesPerCycle: 10,
		LinkLatency:       16,
		HopLatency:        8,

		TSVBytesPerCycle: 4,
		TSVLatency:       4,

		PacketHeaderBytes: 16,

		OperandBufferEntries: 4,
		PCUExecWidth:         1,
		MemPCUClockDiv:       2,

		TLBEntries:     64,
		TLBMissLatency: 80,

		DirectoryEntries:  2048,
		DirectoryLatency:  2,
		MonitorLatency:    3,
		PartialTagBits:    10,
		UseIgnoreBit:      true,
		DispatchWindowCyc: 40000, // 10 µs at 4 GHz
	}
}

// Scaled returns a shrunken machine for unit tests and quick benchmarks:
// 4 cores, a 256 KB L3, and a single cube of 8 vaults. Cache-capacity
// effects appear at ~100 KB working sets instead of ~16 MB, so tests can
// exercise locality crossovers with tiny inputs.
func Scaled() *Config {
	c := Baseline()
	c.Cores = 4
	c.WindowSize = 32
	c.L1 = CacheConfig{SizeBytes: 4 << 10, Ways: 4, LatencyCycles: 4, MSHRs: 8}
	c.L2 = CacheConfig{SizeBytes: 16 << 10, Ways: 8, LatencyCycles: 12, MSHRs: 8}
	c.L3 = CacheConfig{SizeBytes: 256 << 10, Ways: 16, LatencyCycles: 30, MSHRs: 32}
	c.L3Banks = 4
	c.Cubes = 1
	// Keep the paper's 8:1 vault-to-core ratio (128 vaults / 16 cores)
	// so memory-side bandwidth scales with the rest of the machine.
	c.VaultsPerCube = 32
	c.BanksPerVault = 8
	c.DirectoryEntries = 256
	return c
}
