// Command peisim runs one workload on one simulated machine
// configuration and reports timing, steering, traffic, and energy.
//
// Examples:
//
//	peisim -workload pr -size medium -mode locality -scale 64
//	peisim -workload hj -size large -mode pim -budget 200000 -stats
//	peisim -workload bfs -size small -scale 512 -verify
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"pimsim/pei"
)

func main() {
	var (
		workload = flag.String("workload", "pr", "workload: "+strings.Join(pei.WorkloadNames, "|"))
		sizeStr  = flag.String("size", "small", "input size: small|medium|large")
		modeStr  = flag.String("mode", "locality", "execution mode: host|pim|locality|ideal")
		scale    = flag.Int("scale", 64, "input scale divisor (1 = paper-size inputs)")
		budget   = flag.Int64("budget", 0, "per-thread op budget (0 = run to completion)")
		threads  = flag.Int("threads", 0, "threads (default: all cores)")
		full     = flag.Bool("full", false, "use the full Table 2 machine instead of the scaled one")
		cfgPath  = flag.String("config", "", "JSON machine config (overrides -full)")
		verify   = flag.Bool("verify", false, "verify functional results (requires -budget 0)")
		stats    = flag.Bool("stats", false, "dump all counters")
		balanced = flag.Bool("balanced", false, "enable balanced dispatch (§7.4)")
	)
	flag.Parse()

	// Refuse out-of-range values instead of letting the library's
	// defaults replace them behind a header that prints the bad value.
	var refusal string
	switch {
	case *scale < 1:
		refusal = fmt.Sprintf("-scale %d: want a divisor >= 1", *scale)
	case *budget < 0:
		refusal = fmt.Sprintf("-budget %d: want >= 0 (0 = run to completion)", *budget)
	case *threads < 0:
		refusal = fmt.Sprintf("-threads %d: want >= 0 (0 = all cores)", *threads)
	case *verify && *budget > 0:
		refusal = fmt.Sprintf("-verify -budget %d: a budget-truncated run cannot be verified (use -budget 0)", *budget)
	}
	if refusal != "" {
		fmt.Fprintln(os.Stderr, "peisim:", refusal)
		os.Exit(2)
	}

	cfg := pei.ScaledConfig()
	if *full {
		cfg = pei.BaselineConfig()
	}
	if *cfgPath != "" {
		var err error
		cfg, err = pei.LoadConfig(*cfgPath)
		if err != nil {
			fatal(err)
		}
	}
	if *balanced {
		cfg.BalancedDispatch = true // the flag adds to a -config file, never resets it
	}

	mode, err := pei.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	size, err := pei.ParseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}
	nThreads := *threads
	if nThreads == 0 {
		nThreads = cfg.Cores
	}

	// Ctrl-C cancels the simulation cleanly mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	params := pei.WorkloadParams{Threads: nThreads, Size: size, Scale: *scale, OpBudget: *budget}
	res, err := pei.RunWorkloadContext(ctx, cfg, mode, *workload, params, *verify)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Distinct exit code for interruption (128+SIGINT), like
			// shells report it, so scripts can tell Ctrl-C from failure.
			fmt.Fprintln(os.Stderr, "peisim: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}

	pei.WriteWorkloadReport(os.Stdout, *workload, params, *verify, res)
	if *stats {
		fmt.Println()
		keys := make([]string, 0, len(res.Stats))
		for k := range res.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-40s %d\n", k, res.Stats[k])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peisim:", err)
	os.Exit(1)
}
