// Command peibench regenerates the paper's evaluation figures.
//
// Examples:
//
//	peibench -exp fig6                # Figure 6 at laptop scale
//	peibench -exp all -out results.txt
//	peibench -exp fig9 -pairs 200     # the paper's full mix count
//	peibench -exp fig6 -full -scale 1 # paper-scale machine and inputs (slow)
//	peibench -exp all -parallel 8     # eight concurrent simulation cells
//
// Experiment cells run concurrently (-parallel, default GOMAXPROCS);
// tables are byte-identical at any parallelism. Ctrl-C cancels the sweep
// cleanly mid-run.
//
// Profiling:
//
//	peibench -exp fig6 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pimsim/pei"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(pei.Experiments(), "|"))
		scale    = flag.Int("scale", 64, "input scale divisor (1 = paper-size inputs)")
		budget   = flag.Int64("budget", 60000, "per-thread op budget (0 = run to completion)")
		pairs    = flag.Int("pairs", 40, "multiprogrammed mixes for fig9 (paper: 200)")
		full     = flag.Bool("full", false, "use the full Table 2 machine")
		only     = flag.String("workloads", "", "comma-separated workload subset (default all)")
		out      = flag.String("out", "", "write tables to this file as well as stdout")
		parallel = flag.Int("parallel", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
		snapDir  = flag.String("snapshot-dir", "", "checkpoint store for warm starts: cells resume from stored phase boundaries and write new ones (empty = disabled)")
		list     = flag.Bool("list", false, "list experiment names and exit")
		verbose  = flag.Bool("v", false, "log per-run progress")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Refuse out-of-range values instead of letting the library's
	// defaults replace them behind a header that prints the bad value.
	// An unknown experiment is refused here too, before -out creates
	// (and so empties) its file. A snapshot directory starting with "-"
	// is virtually always a swallowed flag (`-snapshot-dir -out x` makes
	// "-out" the directory value); refuse it instead of littering the
	// tree with a dash-path.
	var refusal string
	switch {
	case *scale < 1:
		refusal = fmt.Sprintf("-scale %d: want a divisor >= 1", *scale)
	case *budget < 0:
		refusal = fmt.Sprintf("-budget %d: want >= 0 (0 = run to completion)", *budget)
	case *pairs < 1:
		refusal = fmt.Sprintf("-pairs %d: want >= 1", *pairs)
	case *parallel < 0:
		refusal = fmt.Sprintf("-parallel %d: want >= 0 (0 = GOMAXPROCS)", *parallel)
	case strings.HasPrefix(*snapDir, "-"):
		refusal = fmt.Sprintf("-snapshot-dir %q looks like a flag, not a directory (missing value?)", *snapDir)
	case !*list: // -list ignores -exp
		if err := pei.CheckExperiment(*exp); err != nil {
			refusal = err.Error()
		}
	}
	if refusal != "" {
		fmt.Fprintln(os.Stderr, "peibench:", refusal)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "peibench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "peibench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "peibench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "peibench:", err)
			}
		}()
	}

	if *list {
		for _, name := range pei.Experiments() {
			fmt.Println(name)
		}
		return
	}

	opts := pei.DefaultReproduceOptions()
	opts.Scale = *scale
	opts.OpBudget = *budget
	opts.Pairs = *pairs
	opts.Parallelism = *parallel
	opts.SnapshotDir = *snapDir
	if *full {
		opts.Cfg = pei.BaselineConfig()
	}
	if *only != "" {
		opts.Workloads = strings.Split(*only, ",")
	}
	if *verbose {
		opts.Verbose = os.Stderr
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "peibench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(w, "PEI reproduction — experiment %s (scale 1/%d, budget %d ops/thread)\n\n",
		*exp, *scale, *budget)
	start := time.Now()
	report, err := pei.ReproduceWithReport(ctx, *exp, opts, w)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// The note goes to stderr so piped/redirected table output
			// stays clean; 130 = 128+SIGINT, distinct from failures.
			fmt.Fprintln(os.Stderr, "peibench: interrupted — tables rendered so far are partial")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "peibench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "completed in %s\n", time.Since(start).Round(time.Millisecond))
	if *snapDir != "" {
		fmt.Fprintf(w, "warm starts: %d hits, %d misses, %d cycles simulated, %d cycles skipped\n",
			report.Store.Hits, report.Store.Misses, report.CyclesSimulated, report.CyclesSkipped)
	}
}
