package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"pimsim/internal/config"
	"pimsim/internal/machine"
	"pimsim/internal/pim"
	"pimsim/internal/snap"
	"pimsim/internal/workloads"
)

// This file holds the harness's warm-start state. With a snapshot store
// (Options.SnapshotDir or SnapshotStore), RunWorkload runs each
// simulation in phases: the workload's supersteps are cut at quiescent
// boundaries, each interior boundary is serialized into the
// content-addressed blob store, and a later run of the same cell resumes
// from the deepest stored boundary instead of simulating from cycle 0.

// runDigest content-addresses a run: everything that determines the
// simulated trajectory — final machine config, each program's workload
// identity and parameters, PEI mode — plus the snapshot format version.
// It keys both the runner's memo and the snapshot store. The first
// program is hashed in the fields a single-workload run has always
// used, and the rest go in a field that is omitted when empty, so every
// single-workload digest (and blob name) predates multi-program runs.
func runDigest(cfg *config.Config, progs []Program, mode pim.Mode) string {
	blob, err := json.Marshal(struct {
		Version  uint32
		Cfg      *config.Config
		Workload string
		Params   workloads.Params
		Mode     string
		With     []Program `json:",omitempty"`
	}{snap.Version, cfg, progs[0].Workload, progs[0].Params, mode.String(), progs[1:]})
	if err != nil {
		// Params and Config are plain data; marshal cannot fail.
		panic(fmt.Sprintf("harness: run digest: %v", err))
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

// snapStore lazily opens the runner's shared blob store (or returns the
// injected one). It returns a nil store when snapshots are disabled.
func (r *Runner) snapStore() (*snap.Store, error) {
	if r.Opts.SnapshotDir == "" && r.Opts.SnapshotStore == nil {
		return nil, nil
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if r.store == nil && r.storeErr == nil {
		if r.Opts.SnapshotStore != nil {
			r.store = r.Opts.SnapshotStore
		} else {
			r.store, r.storeErr = snap.NewStore(r.Opts.SnapshotDir, 0)
		}
	}
	return r.store, r.storeErr
}

// restore loads the snapshot blob at path into a freshly built machine
// and workload.
func restore(m *machine.Machine, w workloads.Workload, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.RestoreFrom(f, w.Snap)
}
