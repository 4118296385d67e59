// Command peiperf benchmarks the simulator's own speed, end to end and
// layer by layer, over five workloads chosen to stress different layers.
//
// Every rep runs in a fresh child process (so input generation is cold
// and peak RSS is per workload) with GOMAXPROCS = min(nproc, 4). Run from
// the bench directory:
//
//	go run ./peiperf                       # all workloads, 5 interleaved reps + 1 traced each
//	go run ./peiperf -o a.json -spans s.jsonl
//	go run ./peiperf -workload reproduce -seconds 20 -trace 0
//	go run ./peiperf -compare parent.json change.json
//	go run ./peiperf -bless peiperf/testdata
//
// With -workload it measures one workload for -seconds and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1. See bench/README.md.
package main

import (
	"bufio"
	"context"
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("peiperf", flag.ContinueOnError)
	var (
		only    = fs.String("workload", "", "measure one workload for -seconds (default: all five, interleaved)")
		seed    = fs.Int64("seed", defaultSeed, "input seed: Params.Seed of the cell-driven workloads")
		seconds = fs.Float64("seconds", 20, "with -workload: how long to measure")
		trace   = fs.Int("trace", 0, "with -workload: 1 reports per-layer metrics from traced reps")
		out     = fs.String("o", "", "write results as JSON to this file")
		spansTo = fs.String("spans", "", "write every rep's spans as JSON lines to this file")
		compare = fs.Bool("compare", false, "compare two result files: -compare parent.json change.json")
		bless   = fs.String("bless", "", "rewrite the reference tables in this directory from a run at the default seed")
		child   = fs.Bool("child", false, "run one rep in this process (used by the parent)")
		repNum  = fs.Int("rep", 0, "with -child: rep number, for trace IDs")
		tiny    = fs.Bool("tiny", false, "tiny inputs, for the smoke test")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "peiperf: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case *bless != "":
		err = blessTables(ctx, *bless)
	case *child:
		err = childMain(ctx, *only, repConfig{seed: *seed, tiny: *tiny, traced: *trace == 1}, *repNum, stdout)
	default:
		var ws []*workload
		if *only == "" {
			ws = benchWorkloads
		} else {
			w, err := findWorkload(*only)
			if err != nil {
				fmt.Fprintln(os.Stderr, "peiperf:", err)
				return 2
			}
			ws = []*workload{w}
		}
		p := plan{seed: *seed, tiny: *tiny, seconds: *seconds, trace: *trace == 1}
		results := p.run(ctx, ws)
		for _, r := range results {
			r.print(stdout)
		}
		if err = writeOutputs(*out, *spansTo, results); err != nil {
			break
		}
		if *only != "" {
			line := finalLine(results[0], p.trace)
			if err := json.NewEncoder(stdout).Encode(line); err != nil {
				fmt.Fprintln(os.Stderr, "peiperf:", err)
				return 1
			}
			if !line.Correct {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "peiperf:", err)
		return 1
	}
	return 0
}

// plan is how the parent schedules child reps.
type plan struct {
	seed    int64
	tiny    bool
	seconds float64 // one workload: measure this long
	trace   bool    // one workload: alternate untraced and traced reps
}

// run measures ws. One workload runs reps back to back until the time is
// up; several run in interleaved rounds, so host-speed drift spreads
// evenly over them, followed by one traced rep each.
func (p plan) run(ctx context.Context, ws []*workload) []*workloadResult {
	reps := make([][]*repResult, len(ws))
	if len(ws) == 1 {
		start := time.Now()
		var longest float64
		for i := 0; ctx.Err() == nil; i++ {
			t := time.Now()
			reps[0] = append(reps[0], p.spawn(ctx, ws[0], i, p.trace && i%2 == 1))
			longest = max(longest, time.Since(t).Seconds())
			if len(reps[0]) >= minReps && time.Since(start).Seconds()+longest > p.seconds {
				break
			}
		}
	} else {
		for r := 0; r < interleavedReps; r++ {
			for i, w := range ws {
				reps[i] = append(reps[i], p.spawn(ctx, w, r, false))
			}
		}
		for i, w := range ws {
			reps[i] = append(reps[i], p.spawn(ctx, w, interleavedReps, true))
		}
	}
	out := make([]*workloadResult, len(ws))
	for i, w := range ws {
		out[i] = summarize(w, p.seed, reps[i])
	}
	return out
}

// interleavedReps is how many untraced rounds an all-workload run makes
// before its traced round.
const interleavedReps = 5

// minReps is the fewest reps a single-workload run makes, whatever
// -seconds says: enough for a median and, traced, one rep of each kind.
const minReps = 3

// repTimeout bounds one child; a rep normally takes a few seconds.
const repTimeout = 120 * time.Second

// procs is the child's GOMAXPROCS.
func procs() int { return min(runtime.NumCPU(), 4) }

// spawn runs one rep of w in a fresh child process. The child prints
// "ready" once started and then its repResult as JSON; the time to ready
// is the rep's start-up cost and counts as set-up.
func (p plan) spawn(ctx context.Context, w *workload, n int, traced bool) *repResult {
	res, err := p.spawnErr(ctx, w, n, traced)
	if err != nil {
		return &repResult{Traced: traced, Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
	}
	return res
}

func (p plan) spawnErr(ctx context.Context, w *workload, n int, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(p.seed, 10), "-rep", strconv.Itoa(n)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if p.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	startup := time.Since(start).Seconds()
	var res repResult
	if err == nil && line != "ready\n" {
		err = fmt.Errorf("child: unexpected first line %q", line)
	}
	if err == nil {
		err = json.NewDecoder(br).Decode(&res)
	}
	_, _ = io.Copy(io.Discard, br) // drain, so Wait cannot block on a full pipe
	if werr := cmd.Wait(); werr != nil {
		return nil, fmt.Errorf("child %s rep %d: %w", w.name, n, werr)
	}
	if err != nil {
		return nil, fmt.Errorf("child %s rep %d: %w", w.name, n, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("child: no resource usage")
	}
	res.Metrics["setup_s"] += startup
	res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	res.Metrics["go.cpu_s"] = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return &res, nil
}

//go:embed testdata/*.tables
var refFS embed.FS

// childMain runs one rep in this process and reports it on stdout.
func childMain(ctx context.Context, name string, cfg repConfig, n int, stdout io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if !cfg.tiny {
		if cfg.ref, err = loadRef(w.name); err != nil {
			return err
		}
	}
	if cfg.scratch, err = os.MkdirTemp("", "peiperf-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.scratch)
	cfg.traceID = fmt.Sprintf("%s/r%d", w.name, n)
	fmt.Fprintln(stdout, "ready")
	return json.NewEncoder(stdout).Encode(runRep(ctx, w, cfg))
}

// loadRef returns the reference tables of a harness workload (nil for a
// cell-driven one, which has none).
func loadRef(name string) (map[string]string, error) {
	data, err := refFS.ReadFile("testdata/" + name + ".tables")
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return parseTables(string(data)), nil
}

// parseTables splits a reference file into its "## <figure>" sections.
func parseTables(s string) map[string]string {
	out := map[string]string{}
	name := ""
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if fig, ok := strings.CutPrefix(line, "## "); ok {
			if name != "" {
				out[name] = b.String()
			}
			name = strings.TrimSpace(fig)
			b.Reset()
			continue
		}
		b.WriteString(line)
	}
	if name != "" {
		out[name] = b.String()
	}
	return out
}

// blessTables rewrites the reference tables of every harness workload
// from an in-process run. Use it only for a deliberate model change, and
// say so in the commit.
func blessTables(ctx context.Context, dir string) error {
	for _, w := range benchWorkloads {
		if w.figures == nil {
			continue
		}
		scratch, err := os.MkdirTemp("", "peiperf-")
		if err != nil {
			return err
		}
		res := runRep(ctx, w, repConfig{seed: defaultSeed, scratch: scratch, traceID: w.name + "/bless"})
		os.RemoveAll(scratch)
		if res.Failed > 0 {
			return fmt.Errorf("%s: %s", w.name, strings.Join(res.Errors, "; "))
		}
		var b strings.Builder
		for _, f := range w.figures {
			fmt.Fprintf(&b, "## %s\n%s", f.name, res.Tables[f.name])
		}
		path := filepath.Join(dir, w.name+".tables")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "peiperf: wrote", path)
	}
	return nil
}

// workloadResult summarizes all reps of one workload.
type workloadResult struct {
	Name       string          `json:"name"`
	Seed       int64           `json:"seed"`
	Reps       int             `json:"reps"`
	TracedReps int             `json:"traced_reps"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Errors     []string        `json:"errors,omitempty"`
	Digest     string          `json:"sim_digest"`
	EndToEnd   map[string]stat `json:"end_to_end"`
	PerLayer   map[string]stat `json:"per_layer"`
	// CPUShare and SelfS break down the traced reps: the CPU share of
	// every simulator package, and the self time of every span name.
	CPUShare map[string]float64 `json:"cpu_share"`
	SelfS    map[string]float64 `json:"self_s"`
	spans    [][]span
}

// summarize folds reps into medians and quartiles, and fails every rep
// whose digest differs from the first one's.
func summarize(w *workload, seed int64, reps []*repResult) *workloadResult {
	r := &workloadResult{Name: w.name, Seed: seed, EndToEnd: map[string]stat{}, PerLayer: map[string]stat{},
		CPUShare: map[string]float64{}, SelfS: map[string]float64{}}
	var untraced, traced []*repResult
	for _, rep := range reps {
		r.Attempted += rep.Attempted
		r.Failed += rep.Failed
		r.Errors = append(r.Errors, rep.Errors...)
		if rep.Metrics == nil {
			continue
		}
		if r.Digest == "" {
			r.Digest = rep.Digest
		} else if rep.Digest != r.Digest {
			r.Failed += rep.Attempted - rep.Failed
			r.Errors = append(r.Errors, fmt.Sprintf("sim_digest drift: %s vs %s", rep.Digest, r.Digest))
		}
		r.spans = append(r.spans, rep.Spans)
		if rep.Traced {
			traced = append(traced, rep)
		} else {
			untraced = append(untraced, rep)
		}
	}
	r.Reps, r.TracedReps = len(untraced), len(traced)
	collect := func(reps []*repResult, name string) []float64 {
		vs := make([]float64, len(reps))
		for i, rep := range reps {
			vs[i] = rep.Metrics[name]
		}
		return vs
	}
	if len(untraced) > 0 {
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = newStat(d.Unit, collect(untraced, d.Name))
		}
	}
	if len(traced) == 0 {
		return r
	}
	for _, d := range perLayer {
		r.PerLayer[d.Name] = newStat(d.Unit, collect(traced, d.Name))
	}
	if len(untraced) > 0 {
		overhead := newStat("", collect(traced, "wall_s")).Median/r.EndToEnd["wall_s"].Median - 1
		r.PerLayer["trace.overhead_frac"] = newStat("frac", []float64{overhead})
	}
	shares, self := map[string][]float64{}, map[string][]float64{}
	for _, rep := range traced {
		for name, v := range rep.Metrics {
			if layer, ok := strings.CutSuffix(name, ".cpu_share"); ok {
				shares[layer] = append(shares[layer], v)
			}
		}
		for name, s := range selfTimes(rep.Spans) {
			self[name] = append(self[name], s)
		}
	}
	for layer, vs := range shares {
		r.CPUShare[layer] = newStat("", vs).Median
	}
	for name, vs := range self {
		r.SelfS[name] = newStat("", vs).Median
	}
	return r
}

// resultLine is the one-line result a single-workload run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func finalLine(r *workloadResult, traced bool) resultLine {
	defs, stats := endToEnd, r.EndToEnd
	if traced {
		defs, stats = perLayer, r.PerLayer
	}
	line := resultLine{Correct: r.Failed == 0 && len(stats) > 0, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: stats[d.Name].Median, Unit: d.Unit}
	}
	return line
}

// print writes a human-readable summary.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  reps %d (+%d traced)  cells %d  failed %d  sim_digest %.16s ==\n",
		r.Name, r.Seed, r.Reps, r.TracedReps, r.Attempted, r.Failed, r.Digest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	section := func(title string, defs []metricDef, stats map[string]stat) {
		if len(stats) == 0 {
			return
		}
		fmt.Fprintf(w, "  %-26s %14s %14s %14s  %-10s %s\n", title, "median", "q1", "q3", "unit", "spread")
		for _, d := range defs {
			s := stats[d.Name]
			fmt.Fprintf(w, "  %-26s %14.6g %14.6g %14.6g  %-10s %5.1f%%", d.Name, s.Median, s.Q1, s.Q3, d.Unit, 100*s.spread())
			if d.Bound > 0 {
				fmt.Fprintf(w, " (bound %.0f%%)", 100*d.Bound)
			}
			fmt.Fprintln(w)
		}
	}
	section("end-to-end", endToEnd, r.EndToEnd)
	section("per-layer (traced reps)", perLayer, r.PerLayer)
	breakdown := func(title string, m map[string]float64) {
		if len(m) == 0 {
			return
		}
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return m[names[i]] > m[names[j]] })
		fmt.Fprintf(w, "  %s\n", title)
		for _, n := range names {
			fmt.Fprintf(w, "  %-26s %14.6f\n", n, m[n])
		}
	}
	breakdown("CPU share by package (traced reps)", r.CPUShare)
	breakdown("span self time, s (traced reps)", r.SelfS)
	fmt.Fprintln(w)
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Host      hostInfo          `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// cpuModel reads the CPU model name from /proc/cpuinfo, where it exists.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeOutputs writes the -o result file and the -spans JSON lines.
func writeOutputs(out, spansTo string, results []*workloadResult) error {
	if out != "" {
		f := resultFile{
			Host: hostInfo{
				NProc: runtime.NumCPU(), GOMAXPROCS: procs(), CPUModel: cpuModel(),
				GoVersion: runtime.Version(),
			},
			Workloads: results,
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if spansTo == "" {
		return nil
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, r := range results {
		for _, spans := range r.spans {
			for _, s := range spans {
				if err := enc.Encode(s); err != nil {
					return err
				}
			}
		}
	}
	return os.WriteFile(spansTo, []byte(b.String()), 0o644)
}
