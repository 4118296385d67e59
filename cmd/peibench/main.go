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
	"encoding/json"
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
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(pei.Experiments(), "|"))
		scale     = flag.Int("scale", 64, "input scale divisor (1 = paper-size inputs)")
		budget    = flag.Int64("budget", 60000, "per-thread op budget (0 = run to completion)")
		pairs     = flag.Int("pairs", 40, "multiprogrammed mixes for fig9 (paper: 200)")
		full      = flag.Bool("full", false, "use the full Table 2 machine")
		only      = flag.String("workloads", "", "comma-separated workload subset (default all)")
		out       = flag.String("out", "", "write tables to this file as well as stdout")
		parallel  = flag.Int("parallel", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
		snapDir   = flag.String("snapshot-dir", "", "checkpoint store for warm starts: cells resume from stored phase boundaries and write new ones (empty = disabled)")
		list      = flag.Bool("list", false, "list experiment names and exit")
		verbose   = flag.Bool("v", false, "log per-run progress")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchJSON = flag.String("benchjson", "",
			"write a BENCH_*.json-style snapshot (ns_op, bytes_op, allocs_op for the whole run) to this file")
	)
	flag.Parse()

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

	// A snapshot directory starting with "-" is virtually always a
	// swallowed flag (`-snapshot-dir -out x` makes "-out" the directory
	// value); refuse it instead of littering the tree with a dash-path.
	if strings.HasPrefix(*snapDir, "-") {
		fmt.Fprintf(os.Stderr, "peibench: -snapshot-dir %q looks like a flag, not a directory (missing value?)\n", *snapDir)
		os.Exit(2)
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
	var before runtime.MemStats
	if *benchJSON != "" {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
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
	elapsed := time.Since(start)
	fmt.Fprintf(w, "completed in %s\n", elapsed.Round(time.Millisecond))
	if *snapDir != "" {
		fmt.Fprintf(w, "warm starts: %d hits, %d misses, %d cycles simulated, %d cycles skipped\n",
			report.Store.Hits, report.Store.Misses, report.CyclesSimulated, report.CyclesSkipped)
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *exp, *scale, *budget, *snapDir, elapsed, &before, report); err != nil {
			fmt.Fprintln(os.Stderr, "peibench:", err)
			os.Exit(1)
		}
	}
}

// benchSnapshot is the BENCH_*.json snapshot format the repository uses
// to record before/after numbers for performance work: one headline
// entry with the whole run's wall time and heap traffic, in the same
// ns_op / bytes_op / allocs_op units `go test -benchmem` reports.
type benchSnapshot struct {
	Description string          `json:"description"`
	Experiment  string          `json:"experiment"`
	Scale       int             `json:"scale"`
	Budget      int64           `json:"budget"`
	GoVersion   string          `json:"go_version"`
	Headline    benchHeadline   `json:"headline"`
	Snapshots   *benchSnapshots `json:"snapshots,omitempty"`
}

type benchHeadline struct {
	NsOp     int64  `json:"ns_op"`
	BytesOp  uint64 `json:"bytes_op"`
	AllocsOp uint64 `json:"allocs_op"`
}

// benchSnapshots is the warm-start section, present only when the run
// used a -snapshot-dir.
type benchSnapshots struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	BytesWritten    int64 `json:"bytes_written"`
	CyclesSimulated int64 `json:"cycles_simulated"`
	CyclesSkipped   int64 `json:"cycles_skipped"`
}

// writeBenchJSON records the run as a single-iteration benchmark: the
// heap counters are deltas across Reproduce, so the snapshot is
// comparable between commits at identical flags.
func writeBenchJSON(path, exp string, scale int, budget int64, snapDir string, elapsed time.Duration, before *runtime.MemStats, report pei.SnapshotReport) error {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	snap := benchSnapshot{
		Description: "peibench single-run snapshot: wall time and heap traffic of one Reproduce call " +
			"(units match `go test -benchmem`; compare only at identical -exp/-scale/-budget flags)",
		Experiment: exp,
		Scale:      scale,
		Budget:     budget,
		GoVersion:  runtime.Version(),
		Headline: benchHeadline{
			NsOp:     elapsed.Nanoseconds(),
			BytesOp:  after.TotalAlloc - before.TotalAlloc,
			AllocsOp: after.Mallocs - before.Mallocs,
		},
	}
	if snapDir != "" {
		snap.Snapshots = &benchSnapshots{
			Hits:            report.Store.Hits,
			Misses:          report.Store.Misses,
			BytesWritten:    report.Store.BytesWritten,
			CyclesSimulated: report.CyclesSimulated,
			CyclesSkipped:   report.CyclesSkipped,
		}
	}
	buf, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}
