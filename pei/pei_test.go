package pei

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"pimsim/internal/harness"
	"pimsim/internal/pim"
)

func TestSystemProgramRoundTrip(t *testing.T) {
	sys, err := NewSystem(ScaledConfig(), LocalityAware)
	if err != nil {
		t.Fatal(err)
	}
	counter := sys.Alloc(8, 8)
	prog := NewProgram()
	for i := 0; i < 50; i++ {
		prog.AtomicInc(counter)
	}
	prog.Fence()
	res, err := sys.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ReadU64(counter); got != 50 {
		t.Fatalf("counter = %d, want 50", got)
	}
	if res.Cycles <= 0 || res.PEIs != 50 {
		t.Fatalf("result %+v", res)
	}
	if !strings.Contains(sys.Summary(), "PEIs") {
		t.Fatal("summary missing")
	}
}

func TestProgramAllOps(t *testing.T) {
	sys, err := NewSystem(ScaledConfig(), HostOnly)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.Alloc(64, 64)
	sys.WriteF64(a, 1.0)
	sys.WriteU64(a+8, 100)
	prog := NewProgram()
	prog.Load(a)
	prog.Compute(3)
	prog.AtomicAdd(a, 2.5)
	prog.AtomicMin(a+8, 7)
	prog.Store(a + 16)
	var probed []byte
	prog.PEI(pim.OpHashProbe, a, binary.LittleEndian.AppendUint64(nil, 999), func(out []byte) { probed = out })
	prog.Fence()
	if _, err := sys.Run(prog); err != nil {
		t.Fatal(err)
	}
	if got := sys.ReadF64(a); got != 3.5 {
		t.Fatalf("fadd result %v", got)
	}
	if got := sys.ReadU64(a + 8); got != 7 {
		t.Fatalf("min result %d", got)
	}
	if len(probed) != 9 {
		t.Fatalf("probe output %v", probed)
	}
}

// TestProgramPEIOutputs checks that each PEI callback gets its own copy
// of the output operand (the record behind it is recycled at retire),
// and that an operand of the wrong size panics when the PEI issues.
func TestProgramPEIOutputs(t *testing.T) {
	sys, err := NewSystem(ScaledConfig(), HostOnly)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.Alloc(64, 64)
	sys.WriteU64(a+pim.HashBucketKeyOff, 42)
	sys.WriteU64(a+pim.HashBucketNextOff, 0x1000)
	prog := NewProgram()
	outs := make([][]byte, 8)
	for i := range outs {
		key := uint64(999)
		if i%2 == 0 {
			key = 42
		}
		prog.PEI(pim.OpHashProbe, a, binary.LittleEndian.AppendUint64(nil, key), func(out []byte) { outs[i] = out })
	}
	if _, err := sys.Run(prog); err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if len(out) != 9 || out[0] != byte(1-i%2) || binary.LittleEndian.Uint64(out[1:]) != 0x1000 {
			t.Fatalf("probe %d output %v, want match=%d next=0x1000", i, out, 1-i%2)
		}
	}

	fresh, err := NewSystem(ScaledConfig(), HostOnly)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewProgram()
	bad.PEI(pim.OpHashProbe, a, []byte{1, 2, 3}, nil)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "input operand 3 bytes") {
			t.Fatalf("wrong-size operand: recovered %v, want an operand-size panic", r)
		}
	}()
	fresh.Run(bad)
}

func TestRunWorkloadWithVerify(t *testing.T) {
	p := WorkloadParams{Threads: 2, Size: Small, Scale: 1024}
	res, err := RunWorkload(ScaledConfig(), LocalityAware, "bfs", p, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PEIs == 0 {
		t.Fatal("no PEIs")
	}
	var buf bytes.Buffer
	WriteWorkloadReport(&buf, "bfs", p, true, res)
	report := buf.String()
	for _, want := range []string{
		"workload        bfs (small inputs, scale 1/1024, 2 threads)\n",
		fmt.Sprintf("cycles          %d\n", res.Cycles),
		"verification    OK\n",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report lacks %q:\n%s", want, report)
		}
	}
}

func TestRunWorkloadVerifyRejectsBudget(t *testing.T) {
	p := WorkloadParams{Threads: 2, Size: Small, Scale: 1024, OpBudget: 10}
	if _, err := RunWorkload(ScaledConfig(), HostOnly, "atf", p, true); err == nil {
		t.Fatal("expected error verifying a truncated run")
	}
}

func TestReproduceUnknown(t *testing.T) {
	if err := Reproduce(context.Background(), "fig99", DefaultReproduceOptions(), &bytes.Buffer{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestReproduceFig10Tiny(t *testing.T) {
	opts := DefaultReproduceOptions()
	opts.Scale = 1024
	opts.OpBudget = 2000
	opts.Workloads = []string{"sc"}
	var buf bytes.Buffer
	if err := Reproduce(context.Background(), "fig10", opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 10") {
		t.Fatalf("output missing table: %s", buf.String())
	}
}

func TestBaselineAndScaledConfigs(t *testing.T) {
	if err := BaselineConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ScaledConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	names := Experiments()
	if len(names) == 0 || names[len(names)-1] != "all" {
		t.Fatalf("Experiments() = %v, want trailing \"all\"", names)
	}
	for _, want := range []string{"fig2", "fig6", "fig9", "sec7.6", "ablations"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Experiments() missing %q: %v", want, names)
		}
	}
}

func TestReproduceUnknownListsValidNames(t *testing.T) {
	err := Reproduce(context.Background(), "fig99", DefaultReproduceOptions(), &bytes.Buffer{})
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"fig99", "fig6", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// CheckExperiment accepts exactly what Reproduce runs: every listed
// name and every alias; peibench refuses anything else before it opens
// -out.
func TestCheckExperiment(t *testing.T) {
	for _, name := range append(Experiments(), "sec76") {
		if err := CheckExperiment(name); err != nil {
			t.Errorf("CheckExperiment(%q) = %v", name, err)
		}
	}
	err := CheckExperiment("nosuch")
	if err == nil || !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "fig6") {
		t.Fatalf("CheckExperiment(\"nosuch\") = %v, want an error listing the valid names", err)
	}
}

func TestReproduceAlias(t *testing.T) {
	opts := DefaultReproduceOptions()
	opts.Scale = 2048
	opts.OpBudget = 500
	opts.Workloads = []string{"atf"}
	var buf bytes.Buffer
	if err := Reproduce(context.Background(), "sec76", opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Section 7.6") {
		t.Fatalf("alias output missing table: %s", buf.String())
	}
}

// Reproduce delivers one start and one finish event per simulation,
// paired by Simulations, to ReproduceOptions.Progress; peiperf builds its
// cell spans and simulated-cycle count from exactly this pairing.
func TestReproduceEmitsProgress(t *testing.T) {
	opts := DefaultReproduceOptions()
	opts.Scale = 2048
	opts.OpBudget = 1000
	opts.Workloads = []string{"hg"}
	opts.Parallelism = 1
	var events []harness.Progress
	opts.Progress = func(p harness.Progress) { events = append(events, p) }
	var buf bytes.Buffer
	if err := Reproduce(context.Background(), "fig6", opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatalf("missing table:\n%s", buf.String())
	}
	open := map[int64]string{} // Simulations → cell of an unfinished run
	dones := 0
	for _, ev := range events {
		if ev.Cell == "" || ev.Simulations <= 0 {
			t.Fatalf("event without cell or simulation number: %+v", ev)
		}
		if !ev.Done {
			if _, dup := open[ev.Simulations]; dup {
				t.Fatalf("simulation %d started twice: %+v", ev.Simulations, ev)
			}
			open[ev.Simulations] = ev.Cell
			continue
		}
		if cell, ok := open[ev.Simulations]; !ok || cell != ev.Cell {
			t.Fatalf("finish without a matching start: %+v", ev)
		}
		if ev.Cycles <= 0 {
			t.Fatalf("done event without cycles: %+v", ev)
		}
		delete(open, ev.Simulations)
		dones++
	}
	if dones == 0 || len(open) != 0 {
		t.Fatalf("unbalanced progress events: %d finished, %d never finished", dones, len(open))
	}
}

func TestReproduceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Reproduce(ctx, "fig6", DefaultReproduceOptions(), &bytes.Buffer{})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestRunWorkloadContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := WorkloadParams{Threads: 2, Size: Small, Scale: 1024}
	if _, err := RunWorkloadContext(ctx, ScaledConfig(), HostOnly, "atf", p, false); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestSystemRunContextCancelled(t *testing.T) {
	sys, err := NewSystem(ScaledConfig(), HostOnly)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.Alloc(8, 8)
	prog := NewProgram()
	for i := 0; i < 100; i++ {
		prog.AtomicInc(a)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx, prog); err == nil {
		t.Fatal("expected cancellation error")
	}
}
