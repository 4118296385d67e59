// Multiprogrammed mix (§7.3): two applications with opposite locality
// share one machine — a cache-friendly streamcluster next to a
// memory-hungry ATF. Software cannot know per-block locality across a
// dynamic mix; the hardware locality monitor steers each PEI anyway.
//
//	go run ./examples/multiprogram
package main

import (
	"context"
	"fmt"
	"log"

	"pimsim/internal/machine"
	"pimsim/internal/workloads"
	"pimsim/pei"
)

func runMix(mode pei.Mode) machine.Result {
	cfg := pei.ScaledConfig()
	half := cfg.Cores / 2

	// App A: ATF on a large graph (streaming, low locality).
	a, err := workloads.New("atf", workloads.Params{
		Threads: half, Size: workloads.Large, Scale: 64, OpBudget: 30000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// App B: streamcluster on a small point set (cache resident).
	b, err := workloads.New("sc", workloads.Params{
		Threads: cfg.Cores - half, Size: workloads.Small, Scale: 256, OpBudget: 30000, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	m, err := machine.New(cfg, mode)
	if err != nil {
		log.Fatal(err)
	}
	streams := append(a.Streams(m), b.Streams(m)...)
	res, err := m.RunContext(context.Background(), streams)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("multiprogrammed mix: atf-large (cores 0-1) + sc-small (cores 2-3)")
	fmt.Println()
	host := runMix(pei.HostOnly)
	pimOnly := runMix(pei.PIMOnly)
	la := runMix(pei.LocalityAware)

	show := func(label string, r machine.Result) {
		fmt.Printf("  %-15s IPC %.3f  (%.2fx vs Host-Only)  %.1f%% PIM\n",
			label, r.IPC(), r.IPC()/host.IPC(), 100*r.PIMFraction())
	}
	show("Host-Only", host)
	show("PIM-Only", pimOnly)
	show("Locality-Aware", la)
	fmt.Println()
	fmt.Println("locality-aware execution sends the streaming app's PEIs to memory")
	fmt.Println("while keeping the cache-resident app's PEIs on the host — per")
	fmt.Println("cache block, at runtime, with no software involvement (§7.3).")
}
