// Command peitrace records a workload's op streams to a trace file and
// replays traces onto arbitrary machine configurations — useful for
// comparing designs without regenerating workloads, and for feeding the
// simulator traces produced elsewhere.
//
// Examples:
//
//	peitrace -record pr.trace -workload pr -size medium -scale 64
//	peitrace -replay pr.trace -mode pim
//	peitrace -replay pr.trace -mode locality -full
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/trace"
	"pimsim/internal/workloads"
	"pimsim/pei"
)

func main() {
	var (
		record   = flag.String("record", "", "record the workload to this trace file")
		replay   = flag.String("replay", "", "replay this trace file")
		workload = flag.String("workload", "pr", "workload to record")
		sizeStr  = flag.String("size", "small", "input size")
		scale    = flag.Int("scale", 64, "input scale divisor")
		budget   = flag.Int64("budget", 0, "per-thread op budget")
		modeStr  = flag.String("mode", "locality", "machine mode for the run")
		full     = flag.Bool("full", false, "use the full Table 2 machine")
	)
	flag.Parse()

	cfg := pei.ScaledConfig()
	if *full {
		cfg = pei.BaselineConfig()
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		fatal(err)
	}

	switch {
	case *record != "":
		size, err := workloads.ParseSize(*sizeStr)
		if err != nil {
			fatal(err)
		}
		p := workloads.Params{Threads: cfg.Cores, Size: size, Scale: *scale, OpBudget: *budget}
		w, err := workloads.New(*workload, p)
		if err != nil {
			fatal(err)
		}
		m, err := machine.New(cfg, mode)
		if err != nil {
			fatal(err)
		}
		live := w.Streams(m)
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// Store size is finalized after Streams has allocated; write the
		// header now that it is known.
		tw, err := trace.NewWriterDigest(f, len(live), m.Store.Size(), cfgDigest(cfg))
		if err != nil {
			fatal(err)
		}
		rec := make([]cpu.Stream, len(live))
		for i, s := range live {
			rec[i] = &trace.RecordingStream{Inner: s, Writer: tw, Thread: i}
		}
		res, err := m.RunContext(context.Background(), rec)
		if err != nil {
			fatal(err)
		}
		if err := tw.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d ops (%d PEIs) to %s; live run: %d cycles\n",
			res.Retired, res.PEIs, *record, res.Cycles)

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		m, err := machine.New(cfg, mode)
		if err != nil {
			fatal(err)
		}
		if tr.ConfigDigest != "" && tr.ConfigDigest != cfgDigest(cfg) {
			fmt.Fprintln(os.Stderr, "peitrace: note: trace was recorded on a different machine config (timing will differ from the recording run)")
		}
		if tr.StoreSize > 0 {
			m.Store.Alloc(int(tr.StoreSize), 64)
		}
		res, err := m.RunContext(context.Background(), tr.Streams())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d threads on %s: %d cycles, IPC %.3f, %.1f%% PIM, %d off-chip bytes\n",
			len(tr.PerThread), res.Mode, res.Cycles, res.IPC(), 100*res.PIMFraction(), res.OffchipBytes)

	default:
		fatal(fmt.Errorf("use -record FILE or -replay FILE"))
	}
}

// cfgDigest content-addresses the machine config for the trace header.
func cfgDigest(cfg *pei.Config) string {
	blob, err := json.Marshal(cfg)
	if err != nil {
		fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

func parseMode(s string) (pim.Mode, error) {
	switch strings.ToLower(s) {
	case "host":
		return pim.HostOnly, nil
	case "pim":
		return pim.PIMOnly, nil
	case "locality", "la":
		return pim.LocalityAware, nil
	case "ideal":
		return pim.IdealHost, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peitrace:", err)
	os.Exit(1)
}
