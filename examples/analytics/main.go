// In-memory analytics: hash join probing and histogram building with
// PEIs (§5.2), comparing execution policies and showing output-operand
// PEIs (hash probe returns a 9-byte match/next result; histogram returns
// 16 bin indexes per cache block).
//
//	go run ./examples/analytics
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"pimsim/internal/pim"
	"pimsim/pei"
)

func main() {
	// Part 1: drive the hash-probe PEI directly through the public API.
	sys, err := pei.NewSystem(pei.ScaledConfig(), pei.LocalityAware)
	if err != nil {
		log.Fatal(err)
	}
	bucket := sys.Alloc(64, 64)
	sys.WriteU64(bucket+pim.HashBucketKeyOff, 42)     // key
	sys.WriteU64(bucket+pim.HashBucketKeyOff+8, 4242) // payload
	sys.WriteU64(bucket+pim.HashBucketNextOff, 0)     // end of chain
	prog := pei.NewProgram()
	var match []byte
	key := binary.LittleEndian.AppendUint64(nil, 42) // the 8-byte input operand
	prog.PEI(pim.OpHashProbe, bucket, key, func(out []byte) { match = out })
	if _, err := sys.Run(prog); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hash probe for key 42: match=%d (output operand %v)\n\n", match[0], match)

	// Part 2: the full HJ and HG workloads under host vs memory vs
	// locality-aware execution.
	cfg := pei.ScaledConfig()
	for _, name := range []string{"hj", "hg"} {
		fmt.Printf("%s (medium inputs):\n", name)
		params := pei.WorkloadParams{Threads: cfg.Cores, Size: pei.Medium, Scale: 64, OpBudget: 40000}
		for _, mode := range []pei.Mode{pei.HostOnly, pei.PIMOnly, pei.LocalityAware} {
			res, err := pei.RunWorkload(cfg, mode, name, params, false)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-15s %10d cycles  %12d off-chip bytes  %.1f%% PIM\n",
				res.Mode, res.Cycles, res.OffchipBytes, 100*res.PIMFraction())
		}
		fmt.Println()
	}
}
