package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files with a verdict, reports simulated-count and digest
// changes, and returns 1 if any row is worse or any cell failed.
func compareFiles(parentPath, changePath string, w io.Writer) int {
	parent, err := readResults(parentPath)
	if err == nil {
		var change *resultFile
		if change, err = readResults(changePath); err == nil {
			return compareResults(parent, change, w)
		}
	}
	fmt.Fprintln(os.Stderr, "peiperf:", err)
	return 2
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareResults(parent, change *resultFile, w io.Writer) int {
	code := 0
	byName := map[string]*workloadResult{}
	for _, r := range parent.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-14s %-18s %-30s %-30s %8s  %s\n", "workload", "metric", "parent median (q1-q3)", "change median (q1-q3)", "delta", "verdict")
	for _, c := range change.Workloads {
		p, ok := byName[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-14s (not in parent)\n", c.Name)
			continue
		}
		for _, d := range endToEnd {
			ps, cs := p.EndToEnd[d.Name], c.EndToEnd[d.Name]
			v := verdict(d, ps, cs)
			if v == "worse" {
				code = 1
			}
			delta := 0.0
			if ps.Median != 0 {
				delta = (cs.Median - ps.Median) / math.Abs(ps.Median)
			}
			fmt.Fprintf(w, "%-14s %-18s %-30s %-30s %+7.1f%%  %s\n", c.Name, d.Name, quart(ps), quart(cs), 100*delta, v)
		}
		for _, r := range []*workloadResult{p, c} {
			if r.Failed > 0 {
				code = 1
				fmt.Fprintf(w, "%-14s fail_frac %.4f (%d of %d cells failed)\n", r.Name, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
			}
		}
		if p.Digest != c.Digest {
			fmt.Fprintf(w, "%-14s sim_digest changed: %.16s -> %.16s (seeds %d, %d)\n", c.Name, p.Digest, c.Digest, p.Seed, c.Seed)
		}
		for _, d := range perLayer {
			if !exactCount(d) {
				continue
			}
			pv, cv := p.PerLayer[d.Name].Median, c.PerLayer[d.Name].Median
			if pv != cv {
				fmt.Fprintf(w, "%-14s %s changed: %.0f -> %.0f\n", c.Name, d.Name, pv, cv)
			}
		}
	}
	return code
}

// exactCount reports whether a per-layer metric is a simulated count,
// which must repeat bit-for-bit.
func exactCount(d metricDef) bool {
	return (d.Unit == "count" || d.Unit == "bytes") && !strings.HasPrefix(d.Name, "go.")
}

func quart(s stat) string {
	return fmt.Sprintf("%.4g (%.4g-%.4g)", s.Median, s.Q1, s.Q3)
}

// verdict judges one metric. A change is worse or better when its median
// moves by more than the allowance: the metric's bound times the parent's
// median, or its floor if larger. When the parent's own interquartile
// range exceeds the allowance, the row is unresolved unless every change
// rep beats every parent rep.
func verdict(d metricDef, parent, change stat) string {
	if len(parent.Values) == 0 || len(change.Values) == 0 {
		return "unresolved"
	}
	sign := 1.0
	if d.Better == "lower" {
		sign = -1
	}
	allow := max(d.Bound*math.Abs(parent.Median), d.Floor)
	// gain > 0 means the change is better.
	gain := sign * (change.Median - parent.Median)
	if parent.Q3-parent.Q1 > allow {
		if beatsAll(sign, parent.Values, change.Values) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case gain < -allow:
		return "worse"
	case gain > allow:
		return "better"
	}
	return "same"
}

// beatsAll reports whether every change value is better than every
// parent value.
func beatsAll(sign float64, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return true
}
