package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
	"pimsim/internal/workloads"
)

// snapOptions is tinyOptions plus multi-round workloads, so interior
// phase boundaries actually exist.
func snapOptions(dir string) Options {
	o := Default()
	o.Scale = 512
	o.OpBudget = 5_000
	o.Workloads = []string{"pr", "bfs"}
	o.SnapshotDir = dir
	return o
}

// runSnapCell runs one cell through a fresh runner with the given
// snapshot dir ("" = unphased).
func runSnapCell(t testing.TB, dir string, cell Cell) (*Runner, interface{ IPC() float64 }) {
	t.Helper()
	r := NewRunner(snapOptions(dir))
	res, err := r.RunCell(context.Background(), cell)
	if err != nil {
		t.Fatalf("dir=%q: %v", dir, err)
	}
	return r, res
}

// TestPhasedMatchesUnphased pins what phasing preserves relative to the
// one-shot path: every op retires, on the same cores, with the same PEI
// totals. Cycle counts legitimately differ by a little — a forced drain
// at a boundary aligns all cores to one global quiescent cycle, whereas
// the one-shot run lets each core resume at its own fence-completion
// cycle — so enabling SnapshotDir selects the phased execution model,
// within which everything is bit-exact (see TestResumeEquivalence).
func TestPhasedMatchesUnphased(t *testing.T) {
	for _, wl := range []string{"pr", "bfs", "rp"} {
		for _, mode := range []pim.Mode{pim.HostOnly, pim.LocalityAware} {
			cell := Cell{Workload: wl, Size: workloads.Small, Mode: mode}
			t.Run(fmt.Sprintf("%s/%s/%s", wl, workloads.Small, mode), func(t *testing.T) {
				o := snapOptions("")
				o.Workloads = []string{wl}
				cold := NewRunner(o)
				want, err := cold.RunCell(context.Background(), cell)
				if err != nil {
					t.Fatal(err)
				}
				op := o
				op.SnapshotDir = t.TempDir()
				phased := NewRunner(op)
				got, err := phased.RunCell(context.Background(), cell)
				if err != nil {
					t.Fatal(err)
				}
				if got.Retired != want.Retired ||
					!reflect.DeepEqual(got.PerCoreRetired, want.PerCoreRetired) ||
					got.PEIs != want.PEIs {
					t.Fatalf("phased run lost or duplicated work\nphased:   retired=%d percore=%v peis=%d\nunphased: retired=%d percore=%v peis=%d",
						got.Retired, got.PerCoreRetired, got.PEIs,
						want.Retired, want.PerCoreRetired, want.PEIs)
				}
			})
		}
	}
}

// TestResumeEquivalence is the warm-start acceptance test: restoring
// from EVERY stored phase boundary must reproduce the cold run's result
// exactly. Besides the default config it runs with virtual memory (page
// table and TLB state) and with balanced dispatch (the chain's pressure
// averages), the two configs whose state the default leaves idle, and a
// multiprogrammed pair, whose blobs code both programs' generators.
func TestResumeEquivalence(t *testing.T) {
	pr := Cell{Workload: "pr", Size: workloads.Small, Mode: pim.LocalityAware}
	prVM := pr
	prVM.Mutate = func(c *config.Config) { c.EnableVM = true }
	for _, cell := range []Cell{
		pr,
		prVM,
		// sc is a workload whose steering balanced dispatch changes.
		{Workload: "sc", Size: workloads.Small, Mode: pim.LocalityAware, Mutate: func(c *config.Config) { c.BalancedDispatch = true }},
		// A Figure 9 pair: the mix's parts run different round counts.
		{Workload: "pr", Size: workloads.Small, Mode: pim.LocalityAware, Seed: 1, With: &Cell{Workload: "bfs", Size: workloads.Medium, Seed: 2}},
	} {
		coldDir := t.TempDir()
		coldRunner, coldRes := runSnapCell(t, coldDir, cell)
		rep := coldRunner.SnapshotReport()
		if rep.Store.Misses == 0 || rep.Store.Hits != 0 {
			t.Fatalf("cold run should miss, not hit: %+v", rep.Store)
		}
		blobs, err := filepath.Glob(filepath.Join(coldDir, "*.snap"))
		if err != nil || len(blobs) == 0 {
			t.Fatalf("cold run stored no snapshots (err=%v)", err)
		}
		for _, blob := range blobs {
			// The subtest keeps the "seq-w0" leaf its name has always
			// had; the blob name's digest tells the configs apart.
			t.Run(filepath.Base(blob)+"/seq-w0", func(t *testing.T) {
				// A dir holding exactly one boundary forces the resume
				// to start from that phase.
				dir := t.TempDir()
				data, err := os.ReadFile(blob)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(blob)), data, 0o644); err != nil {
					t.Fatal(err)
				}
				warmRunner, warmRes := runSnapCell(t, dir, cell)
				if !reflect.DeepEqual(coldRes, warmRes) {
					t.Fatalf("warm result diverged from cold\nwarm: %+v\ncold: %+v", warmRes, coldRes)
				}
				rep := warmRunner.SnapshotReport()
				if rep.Store.Hits != 1 {
					t.Fatalf("warm run should hit once: %+v", rep.Store)
				}
				if rep.CyclesSkipped == 0 {
					t.Fatalf("warm run skipped no cycles: %+v", rep)
				}
			})
		}
	}
}

// deepestBlob returns the deepest blob runSnapCell stored for cell in
// dir, read through a store of its own so the run's counters stay put.
func deepestBlob(t testing.TB, r *Runner, dir string, cell Cell) snap.Blob {
	t.Helper()
	st, err := snap.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := st.Best(runDigest(r.Opts.Cfg, []Program{r.program(cell)}, cell.Mode))
	if !ok {
		t.Fatalf("no blob stored for %s/%s", cell.Workload, cell.Size)
	}
	return b
}

// freshRun builds cell's workload and a machine for it, streams
// attached, as RunWorkload does before it restores a blob.
func freshRun(t testing.TB, r *Runner, cell Cell) (*machine.Machine, workloads.Workload) {
	t.Helper()
	w, err := workloads.New(cell.Workload, r.params(cell.Size))
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(r.Opts.Cfg, cell.Mode)
	if err != nil {
		t.Fatal(err)
	}
	w.Streams(m)
	return m, w
}

// countReader counts the Read calls made on it.
type countReader struct {
	r     io.Reader
	reads int
}

func (c *countReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// countWriter counts the Write calls made on it.
type countWriter struct {
	w      io.Writer
	writes int
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

// TestSnapshotIOChunks pins the I/O shape of warm starts: restoring a
// real phase blob reads it, and storing it again through Store.Put
// writes it, in 64 KiB chunks rather than one call per field.
func TestSnapshotIOChunks(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{Workload: "bfs", Size: workloads.Small, Mode: pim.LocalityAware}
	r, _ := runSnapCell(t, dir, cell)
	blob := deepestBlob(t, r, dir, cell)
	data, err := os.ReadFile(blob.Path)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 64 << 10
	max := (len(data)+chunk-1)/chunk + 2

	m, w := freshRun(t, r, cell)
	cr := &countReader{r: bytes.NewReader(data)}
	if err := m.RestoreFrom(cr, w.Snap); err != nil {
		t.Fatal(err)
	}
	if cr.reads > max {
		t.Fatalf("%d reads to restore a %d-byte blob, want <= %d", cr.reads, len(data), max)
	}

	st, err := snap.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var cw *countWriter
	if err := st.Put(blob.Digest, blob.Phase, blob.Cycle, func(out io.Writer) error {
		cw = &countWriter{w: out}
		return m.SnapshotTo(cw, w.Snap)
	}); err != nil {
		t.Fatal(err)
	}
	if cw.writes > max {
		t.Fatalf("%d writes to store a %d-byte blob, want <= %d", cw.writes, len(data), max)
	}
	again, ok := st.Best(blob.Digest)
	if !ok {
		t.Fatal("Put stored no blob")
	}
	if got, err := os.ReadFile(again.Path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restored-then-stored blob differs from the original (%d vs %d bytes, %v)", len(got), len(data), err)
	}
}

// TestUnusableBlobRunsCold truncates a cell's deepest blob: the rerun
// must drop it, run cold to the cold result, and store the blob anew.
func TestUnusableBlobRunsCold(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{Workload: "pr", Size: workloads.Small, Mode: pim.LocalityAware}
	coldRunner, coldRes := runSnapCell(t, dir, cell)
	blob := deepestBlob(t, coldRunner, dir, cell)
	want, err := os.ReadFile(blob.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(blob.Path, blob.Size/2); err != nil {
		t.Fatal(err)
	}
	rerun, res := runSnapCell(t, dir, cell)
	if !reflect.DeepEqual(res, coldRes) {
		t.Fatalf("rerun over a torn blob diverged from cold\nrerun: %+v\ncold:  %+v", res, coldRes)
	}
	rep := rerun.SnapshotReport()
	if rep.Store.Hits != 1 || rep.CyclesSkipped != 0 {
		t.Fatalf("rerun should find the torn blob and then run cold: %+v", rep)
	}
	got, err := os.ReadFile(blob.Path)
	if err != nil {
		t.Fatalf("torn blob was not rewritten: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rewritten blob is %d bytes, want the cold run's %d", len(got), len(want))
	}
}

// FuzzRestore feeds damaged copies of a real phase blob to
// Machine.RestoreFrom on a fresh machine and workload. The restore may
// fail or succeed, but it must never panic. Each input truncates the
// blob to n%(len+1) bytes and XORs patch in at off%(len+1); fuzzing
// these few bytes instead of the 1.28 MB blob itself keeps the fuzzer
// fast.
func FuzzRestore(f *testing.F) {
	dir := f.TempDir()
	cell := Cell{Workload: "bfs", Size: workloads.Small, Mode: pim.LocalityAware}
	r, _ := runSnapCell(f, dir, cell)
	blobs, err := filepath.Glob(filepath.Join(dir, "*-p1-*.snap"))
	if err != nil || len(blobs) != 1 {
		f.Fatalf("want one phase-1 blob, found %v (err=%v)", blobs, err)
	}
	blob, err := os.ReadFile(blobs[0])
	if err != nil {
		f.Fatal(err)
	}
	if m, w := freshRun(f, r, cell); m.RestoreFrom(bytes.NewReader(blob), w.Snap) != nil {
		f.Fatal("the intact blob does not restore")
	}
	size := uint32(len(blob))
	f.Add(uint32(0), []byte(nil), size)                 // intact
	f.Add(uint32(0), []byte(nil), size/2)               // torn
	f.Add(uint32(0), []byte{0xff}, size)                // bad magic
	f.Add(uint32(12), []byte{0x01}, size)               // first section tag
	f.Add(size/2, []byte{0x80, 0, 0, 0, 0, 0, 0}, size) // mid-blob flip
	f.Add(size-1, []byte{0x01}, size)                   // last byte
	f.Fuzz(func(t *testing.T, off uint32, patch []byte, n uint32) {
		data := append([]byte(nil), blob[:n%(size+1)]...)
		for i, b := range patch {
			if j := int(off%(size+1)) + i; j < len(data) {
				data[j] ^= b
			}
		}
		m, w := freshRun(t, r, cell)
		_ = m.RestoreFrom(bytes.NewReader(data), w.Snap)
	})
}

// TestSnapshotBlobPinned pins the first phase-boundary blob of one
// cell: its content address and the SHA-256 of its bytes, both taken
// from an earlier build. A change to the blob format or its content
// address fails here, because stores written by earlier binaries must
// keep hitting.
func TestSnapshotBlobPinned(t *testing.T) {
	const (
		wantName = "a9dd9e2477d7cf3b76323bec7051f588-p1-c4345.snap"
		wantSum  = "740acaf92205f358f403ab70fc72984f2a3acc458066124b3f3b0f9382531443"
	)
	dir := t.TempDir()
	runSnapCell(t, dir, Cell{Workload: "bfs", Size: workloads.Small, Mode: pim.LocalityAware})
	data, err := os.ReadFile(filepath.Join(dir, wantName))
	if err != nil {
		blobs, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
		t.Fatalf("phase-1 blob missing (%v); store holds %v", err, blobs)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != wantSum {
		t.Fatalf("blob %s sha256 = %x, want %s", wantName, sum, wantSum)
	}
}

// TestWarmSweepTables is the sweep-level check behind the CI warm-start
// step, for the two figures named in the acceptance criteria: a cold
// sweep followed by a warm rerun sharing the snapshot dir must render
// byte-identical tables while hitting the store and simulating fewer
// cycles. Fig2 exercises the graph-workload cells, Fig6-small the
// size sweep.
func TestWarmSweepTables(t *testing.T) {
	figures := []struct {
		name string
		run  func(*Runner) (*Table, error)
	}{
		{"fig2", func(r *Runner) (*Table, error) {
			return r.Fig2(context.Background())
		}},
		{"fig6-small", func(r *Runner) (*Table, error) {
			return r.Fig6(context.Background(), workloads.Small)
		}},
	}
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			dir := t.TempDir()
			render := func() ([]byte, SnapshotReport) {
				o := snapOptions(dir)
				r := NewRunner(o)
				tb, err := fig.run(r)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				tb.Render(&buf)
				return buf.Bytes(), r.SnapshotReport()
			}
			coldTable, coldRep := render()
			warmTable, warmRep := render()
			if !bytes.Equal(coldTable, warmTable) {
				t.Fatalf("warm table diverged from cold\n--- warm ---\n%s--- cold ---\n%s", warmTable, coldTable)
			}
			if warmRep.Store.Hits == 0 {
				t.Fatalf("warm sweep had no snapshot hits: %+v", warmRep.Store)
			}
			if warmRep.CyclesSimulated >= coldRep.CyclesSimulated {
				t.Fatalf("warm sweep simulated %d cycles, cold %d — warm should be cheaper",
					warmRep.CyclesSimulated, coldRep.CyclesSimulated)
			}
		})
	}
}
