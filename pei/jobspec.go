package pei

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"pimsim/internal/harness"
	"pimsim/internal/workloads"
)

// ParseMode converts a mode name ("host", "pim", "locality", "ideal"
// and common aliases) into a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "host", "host-only":
		return HostOnly, nil
	case "pim", "pim-only":
		return PIMOnly, nil
	case "locality", "locality-aware", "la":
		return LocalityAware, nil
	case "ideal", "ideal-host":
		return IdealHost, nil
	}
	return 0, fmt.Errorf("pei: unknown mode %q (host|pim|locality|ideal)", s)
}

// ModeName returns the canonical short name ParseMode accepts.
func ModeName(m Mode) string {
	switch m {
	case HostOnly:
		return "host"
	case PIMOnly:
		return "pim"
	case LocalityAware:
		return "locality"
	default:
		return "ideal"
	}
}

// ParseSize converts "small"/"medium"/"large" into a Size.
func ParseSize(s string) (Size, error) { return workloads.ParseSize(strings.ToLower(s)) }

// Job kinds.
const (
	JobExperiment = "experiment"
	JobWorkload   = "workload"
)

// JobSpec is a serializable description of one simulation job: either a
// named experiment sweep (everything Reproduce runs — figures and
// ablations) or a single-workload run (what peisim does). It is the
// submission payload of peiserved's POST /v1/jobs and the unit the
// result cache is keyed on; see Digest.
type JobSpec struct {
	// Kind is JobExperiment or JobWorkload. Normalize infers it when
	// empty from whichever of Experiment/Workload is set.
	Kind string `json:"kind,omitempty"`

	// Experiment names a registered experiment (see Experiments), e.g.
	// "fig2" or "all". Experiment jobs render the same tables as
	// peibench.
	Experiment string `json:"experiment,omitempty"`

	// Workload names one of the paper's ten workloads for a
	// single-machine run; Size, Mode, Threads, Seed, and Verify apply
	// only to workload jobs.
	Workload string `json:"workload,omitempty"`
	Size     string `json:"size,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Verify   bool   `json:"verify,omitempty"`

	// Config picks the machine preset: "scaled" (default) or
	// "baseline" (the paper's Table 2 machine). Overrides, if present,
	// is a JSON object of Config field overrides layered on top.
	Config    string          `json:"config,omitempty"`
	Overrides json.RawMessage `json:"overrides,omitempty"`

	// Scale divides the Table 3 input sizes (default 64); OpBudget
	// bounds per-thread generated ops (default 60000 for experiment
	// jobs, 0 = run to completion for workload jobs); Pairs is the
	// fig9 mix count (default 40); Workloads optionally restricts
	// experiment jobs to a workload subset.
	Scale     int      `json:"scale,omitempty"`
	OpBudget  int64    `json:"budget,omitempty"`
	Pairs     int      `json:"pairs,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
}

// validExperiment reports whether name is runnable (registry names,
// aliases, and "all"), returning the canonical spelling.
func validExperiment(name string) (string, bool) {
	if canonical, ok := experimentAliases[name]; ok {
		name = canonical
	}
	for _, e := range experiments {
		if e.name == name {
			return name, true
		}
	}
	if name == "all" {
		return name, true
	}
	return name, false
}

// ResolveConfig builds the machine config the spec describes: the named
// preset with Overrides layered on top, validated.
func (s JobSpec) ResolveConfig() (*Config, error) {
	var cfg *Config
	switch s.Config {
	case "", "scaled":
		cfg = ScaledConfig()
	case "baseline", "full":
		cfg = BaselineConfig()
	default:
		return nil, fmt.Errorf("pei: unknown config preset %q (scaled|baseline)", s.Config)
	}
	if len(s.Overrides) > 0 {
		if err := json.Unmarshal(s.Overrides, cfg); err != nil {
			return nil, fmt.Errorf("pei: config overrides: %w", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Normalize validates the spec and returns a canonical copy: kind
// inferred, names canonicalized and checked against the registries,
// defaults filled in (including Threads, resolved against the config's
// core count). Two specs that normalize identically describe the same
// simulation. The resolved config is returned alongside so callers
// (Digest, RunJob) resolve it exactly once.
func (s JobSpec) Normalize() (JobSpec, *Config, error) {
	cfg, err := s.ResolveConfig()
	if err != nil {
		return s, nil, err
	}
	if s.Kind == "" {
		switch {
		case s.Experiment != "" && s.Workload == "":
			s.Kind = JobExperiment
		case s.Workload != "" && s.Experiment == "":
			s.Kind = JobWorkload
		default:
			return s, nil, fmt.Errorf("pei: job must set exactly one of experiment or workload")
		}
	}
	if s.Config == "" {
		s.Config = "scaled"
	} else if s.Config == "full" {
		s.Config = "baseline"
	}
	if s.Scale <= 0 {
		s.Scale = 64
	}
	switch s.Kind {
	case JobExperiment:
		if s.Workload != "" {
			return s, nil, fmt.Errorf("pei: experiment job cannot also set a workload")
		}
		canonical, ok := validExperiment(s.Experiment)
		if !ok {
			return s, nil, fmt.Errorf("pei: unknown experiment %q (valid: %s)", s.Experiment, strings.Join(Experiments(), ", "))
		}
		s.Experiment = canonical
		if s.OpBudget <= 0 {
			s.OpBudget = 60_000
		}
		if s.Pairs <= 0 {
			s.Pairs = 40
		}
		if len(s.Workloads) == 0 {
			s.Workloads = append([]string(nil), workloads.Names...)
		}
		for _, name := range s.Workloads {
			if !validWorkload(name) {
				return s, nil, fmt.Errorf("pei: unknown workload %q (valid: %s)", name, strings.Join(WorkloadNames, ", "))
			}
		}
	case JobWorkload:
		if s.Experiment != "" {
			return s, nil, fmt.Errorf("pei: workload job cannot also set an experiment")
		}
		if !validWorkload(s.Workload) {
			return s, nil, fmt.Errorf("pei: unknown workload %q (valid: %s)", s.Workload, strings.Join(WorkloadNames, ", "))
		}
		if s.Size == "" {
			s.Size = "small"
		}
		size, err := ParseSize(s.Size)
		if err != nil {
			return s, nil, err
		}
		s.Size = size.String()
		if s.Mode == "" {
			s.Mode = "locality"
		}
		mode, err := ParseMode(s.Mode)
		if err != nil {
			return s, nil, err
		}
		s.Mode = ModeName(mode)
		if s.Threads <= 0 {
			s.Threads = cfg.Cores
		}
		if s.Verify && s.OpBudget > 0 {
			return s, nil, fmt.Errorf("pei: cannot verify a budget-truncated run")
		}
		// Experiment-only knobs are meaningless here; zero them so they
		// don't split the cache key.
		s.Pairs = 0
		s.Workloads = nil
	default:
		return s, nil, fmt.Errorf("pei: unknown job kind %q (%s|%s)", s.Kind, JobExperiment, JobWorkload)
	}
	return s, cfg, nil
}

func validWorkload(name string) bool {
	for _, n := range WorkloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// Digest returns the spec's content address: a hex SHA-256 over the
// normalized spec and the fully resolved machine config. Two specs with
// the same digest produce byte-identical results, so the digest is the
// result-cache key. Execution knobs that cannot change output
// (parallelism) are deliberately absent; override spellings that
// resolve to the same config collapse to one digest.
func (s JobSpec) Digest() (string, error) {
	n, cfg, err := s.Normalize()
	if err != nil {
		return "", err
	}
	n.Overrides = nil // cfg carries their effect
	sort.Strings(n.Workloads)
	payload, err := json.Marshal(struct {
		Spec   JobSpec `json:"spec"`
		Config *Config `json:"config"`
	}{n, cfg})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// JobProgress is one simulation-lifecycle event emitted while a job
// runs (re-exported from the harness).
type JobProgress = harness.Progress

// RunJobOptions are execution knobs that do not affect job output.
type RunJobOptions struct {
	// Parallelism is the number of simulation cells run concurrently
	// within this job (0 = GOMAXPROCS).
	Parallelism int
	// Progress, if non-nil, receives simulation start/finish events;
	// must be goroutine-safe.
	Progress func(JobProgress)
	// Snapshots, if non-nil, enables warm starts: every simulation the
	// job runs (experiment cells and workload jobs alike) resumes from
	// the deepest matching checkpoint in the store and writes new
	// phase-boundary checkpoints back. Functional results are unchanged,
	// but a run with a store is cut into one phase per superstep while a
	// run without one is a single phase, and the two cycle counts differ
	// (see DESIGN.md §13). A server should therefore enable snapshots for
	// all jobs or none — mixing them splits cycle counts for
	// otherwise-identical specs.
	Snapshots *SnapshotStore
}

// RunJob executes the spec and writes its rendered result — the same
// tables peibench prints for experiment jobs, a peisim-style report for
// workload jobs — to w. Output is deterministic: byte-identical for
// equal digests at any parallelism.
func RunJob(ctx context.Context, spec JobSpec, w io.Writer, opts RunJobOptions) error {
	spec, cfg, err := spec.Normalize()
	if err != nil {
		return err
	}
	ro := ReproduceOptions{
		Cfg:           cfg,
		Scale:         spec.Scale,
		OpBudget:      spec.OpBudget,
		Workloads:     spec.Workloads,
		Pairs:         spec.Pairs,
		Parallelism:   opts.Parallelism,
		Progress:      opts.Progress,
		SnapshotStore: opts.Snapshots,
	}
	if spec.Kind == JobExperiment {
		return Reproduce(ctx, spec.Experiment, ro, w)
	}
	// JobWorkload; Normalize rejected everything else.
	size, _ := ParseSize(spec.Size)
	mode, _ := ParseMode(spec.Mode)
	params := WorkloadParams{
		Threads:  spec.Threads,
		Size:     size,
		Scale:    spec.Scale,
		Seed:     spec.Seed,
		OpBudget: spec.OpBudget,
	}
	res, err := harness.NewRunner(ro).RunWorkload(ctx, spec.Workload, params, mode, nil, spec.Verify)
	if err != nil {
		return err
	}
	writeWorkloadReport(w, spec, res)
	return nil
}

// writeWorkloadReport renders a single-workload result as the aligned
// key/value report peisim prints.
func writeWorkloadReport(w io.Writer, spec JobSpec, res Result) {
	fmt.Fprintf(w, "workload        %s (%s inputs, scale 1/%d, %d threads)\n",
		spec.Workload, spec.Size, spec.Scale, spec.Threads)
	fmt.Fprintf(w, "mode            %s\n", res.Mode)
	fmt.Fprintf(w, "cycles          %d\n", res.Cycles)
	fmt.Fprintf(w, "ops retired     %d (IPC %.3f)\n", res.Retired, res.IPC())
	fmt.Fprintf(w, "PEIs            %d (%d host, %d memory, %.1f%% PIM)\n",
		res.PEIHost+res.PEIMem, res.PEIHost, res.PEIMem, 100*res.PIMFraction())
	fmt.Fprintf(w, "off-chip bytes  %d\n", res.OffchipBytes)
	fmt.Fprintf(w, "DRAM accesses   %d\n", res.DRAMAccesses)
	fmt.Fprintf(w, "energy (nJ)     %.0f (caches %.0f, DRAM %.0f, links %.0f, TSV %.0f, PCU %.0f, PMU %.0f)\n",
		res.Energy.Total(), res.Energy.Caches, res.Energy.DRAM, res.Energy.Offchip,
		res.Energy.TSV, res.Energy.PCU, res.Energy.PMU)
	if spec.Verify {
		fmt.Fprintln(w, "verification    OK")
	}
}
