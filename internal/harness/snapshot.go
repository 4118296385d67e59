package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"pimsim/internal/config"
	"pimsim/internal/cpu"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
	"pimsim/internal/workloads"
)

// This file is the harness's warm-start path. With Options.SnapshotDir
// set, every cell runs phased: the workload's supersteps are cut at
// quiescent boundaries, each interior boundary is serialized into the
// content-addressed blob store, and a later run of the same cell resumes
// from the deepest stored boundary instead of simulating from cycle 0.

// snapshotDigest content-addresses a cell: everything that determines
// the simulated trajectory — final machine config, workload identity and
// parameters, PEI mode — plus the snapshot format version.
func snapshotDigest(cfg *config.Config, name string, p workloads.Params, mode pim.Mode) string {
	blob, err := json.Marshal(struct {
		Version  uint32
		Cfg      *config.Config
		Workload string
		Params   workloads.Params
		Mode     string
	}{snap.Version, cfg, name, p, mode.String()})
	if err != nil {
		// Params and Config are plain data; marshal cannot fail.
		panic(fmt.Sprintf("harness: snapshot digest: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

// SnapshotReport summarizes the runner's warm-start activity: the blob
// store's counters plus the cycle ledger (simulated this run vs skipped
// by resuming from snapshots).
type SnapshotReport struct {
	Store snap.StoreStats
	// CyclesSimulated is the total cycles actually driven this run.
	CyclesSimulated int64
	// CyclesSkipped is the total cycles warm starts did not re-simulate
	// (each resumed cell contributes its restore cycle).
	CyclesSkipped int64
}

// SnapshotReport returns the warm-start summary (zero value when
// snapshots are disabled).
func (r *Runner) SnapshotReport() SnapshotReport {
	rep := SnapshotReport{
		CyclesSimulated: r.cyclesSimulated.Load(),
		CyclesSkipped:   r.cyclesSkipped.Load(),
	}
	r.snapMu.Lock()
	if r.store != nil {
		rep.Store = r.store.Stats()
	}
	r.snapMu.Unlock()
	return rep
}

// snapshotsEnabled reports whether this runner checkpoints (a snapshot
// dir or an injected store).
func (r *Runner) snapshotsEnabled() bool {
	return r.Opts.SnapshotDir != "" || r.Opts.SnapshotStore != nil
}

// snapStore lazily opens the runner's shared blob store (or returns the
// injected one).
func (r *Runner) snapStore() (*snap.Store, error) {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if r.store == nil && r.storeErr == nil {
		if r.Opts.SnapshotStore != nil {
			r.store = r.Opts.SnapshotStore
		} else {
			r.store, r.storeErr = snap.NewStore(r.Opts.SnapshotDir, r.Opts.SnapshotBudget)
		}
	}
	return r.store, r.storeErr
}

// RunPhasedWorkload runs a single workload with explicit params through
// the warm-start path (serve's workload jobs ride through here so they
// share the daemon's snapshot store). verify checks functional results
// against the workload's golden implementation after the run.
func (r *Runner) RunPhasedWorkload(ctx context.Context, name string, p workloads.Params, mode pim.Mode, verify bool) (machine.Result, error) {
	cfg := r.Opts.Cfg.Clone()
	cfg.MaxOps = 0
	res, _, err := r.runPhased(ctx, cfg, name, p, mode, verify)
	return res, err
}

// runPhased runs one cell in phases, resuming from the deepest stored
// snapshot and writing a snapshot at every interior superstep boundary.
// Warm results are bit-identical to a cold phased run of the same cell.
func (r *Runner) runPhased(ctx context.Context, cfg *config.Config, name string, p workloads.Params, mode pim.Mode, verify bool) (machine.Result, int64, error) {
	st, err := r.snapStore()
	if err != nil {
		return machine.Result{}, 0, err
	}
	digest := snapshotDigest(cfg, name, p, mode)

	build := func() (*machine.Machine, workloads.Phased, []cpu.Stream, error) {
		w, err := workloads.New(name, p)
		if err != nil {
			return nil, nil, nil, err
		}
		m, err := machine.New(cfg, mode)
		if err != nil {
			return nil, nil, nil, err
		}
		pw := w.(workloads.Phased) // every workload embeds phaseCtl
		return m, pw, pw.Streams(m), nil
	}
	m, pw, streams, err := build()
	if err != nil {
		return machine.Result{}, 0, err
	}

	rounds := pw.Rounds()
	phase := 0
	if blob, ok := st.Best(digest); ok {
		err := func() error {
			f, err := os.Open(blob.Path)
			if err != nil {
				return err
			}
			defer f.Close()
			return m.RestoreFrom(f, pw.RestoreFrom)
		}()
		if err != nil {
			// A torn or stale blob must not poison the run: drop it and
			// rebuild cold (restore may have half-mutated the machine).
			r.logf("  snapshot %s unusable (%v), running cold", blob.Path, err)
			os.Remove(blob.Path)
			if m, pw, streams, err = build(); err != nil {
				return machine.Result{}, 0, err
			}
		} else {
			phase = blob.Phase
		}
	}

	startCycle := int64(m.K.Now())
	for ; phase < rounds; phase++ {
		if phase+1 >= rounds {
			pw.SetRoundLimit(0) // final phase runs to completion, tail included
		} else {
			pw.SetRoundLimit(phase + 1)
		}
		if err := m.Start(streams); err != nil {
			return machine.Result{}, 0, err
		}
		if err := m.Drive(ctx); err != nil {
			return machine.Result{}, 0, err
		}
		if phase+1 >= rounds {
			break
		}
		var buf bytes.Buffer
		if err := m.SnapshotTo(&buf, pw.SnapshotTo); err != nil {
			return machine.Result{}, 0, err
		}
		if err := st.Put(digest, phase+1, int64(m.K.Now()), buf.Bytes()); err != nil {
			return machine.Result{}, 0, err
		}
	}
	if err := m.CheckDone(streams); err != nil {
		return machine.Result{}, 0, err
	}
	res := m.Finish()
	r.cyclesSimulated.Add(int64(res.Cycles) - startCycle)
	r.cyclesSkipped.Add(startCycle)
	if verify {
		if err := pw.Verify(m); err != nil {
			return res, 0, err
		}
	}
	return res, int64(res.Cycles) - startCycle, nil
}
