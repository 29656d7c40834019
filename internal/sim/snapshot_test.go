package sim

import (
	"errors"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
)

// snapshotWorkload builds a small two-network workload with enough
// events that a mid-run probe leaves plenty of simulation ahead of it.
func snapshotWorkload(t *testing.T) (arch.Config, []*compiler.CompiledNetwork) {
	t.Helper()
	cfg := testConfig()
	a := chainNet("a", cfg,
		layerSpec{mb: 10, cb: 14, iters: 8, blocks: 1},
		layerSpec{mb: 6, cb: 22, iters: 8, blocks: 1},
	)
	b := chainNet("b", cfg,
		layerSpec{mb: 16, cb: 5, iters: 8, blocks: 2},
	)
	return cfg, []*compiler.CompiledNetwork{a, b}
}

// probedEngine runs the workload partway with invariant checking on
// and returns the engine stopped mid-run.
func probedEngine(t *testing.T) *Engine {
	t.Helper()
	cfg, nets := snapshotWorkload(t)
	ref, err := Run(cfg, nets, serial{}, Options{CheckInvariants: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	e, err := NewEngine(cfg, nets, serial{}, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepUntil(ref.Makespan / 2); err != nil {
		t.Fatalf("StepUntil: %v", err)
	}
	if e.Now() >= ref.Makespan {
		t.Fatalf("probe landed at %d, past makespan %d — workload too small", e.Now(), ref.Makespan)
	}
	return e
}

// TestSnapshotSabotageAvailCB corrupts a restored snapshot's
// incrementally maintained AVL_CB counter. The checker's frontier
// family recomputes the counter by full scan after every event, so
// the very next event after the restore must trip ErrInvariant — this
// is the proof that Restore feeds the restored state back through the
// same validation as live state, rather than bypassing it.
func TestSnapshotSabotageAvailCB(t *testing.T) {
	e := probedEngine(t)
	snap := e.Snapshot(nil)
	snap.availCB += 977 // corrupt the machine's AVL_CB shadow
	if err := e.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := e.Run(); !errors.Is(err, ErrInvariant) {
		t.Fatalf("run after corrupted restore: err=%v, want ErrInvariant", err)
	}
}

// TestSnapshotSabotageSRAMFreeList corrupts the snapshot of the
// checker's SRAM block table by double-freeing a block. The checker's
// structural SRAM walk (free list and chains partition the blocks
// exactly) must reject the replay.
func TestSnapshotSabotageSRAMFreeList(t *testing.T) {
	e := probedEngine(t)
	snap := e.Snapshot(nil)
	if len(snap.chkFree) == 0 {
		t.Fatal("probe found an empty free list; nothing to sabotage")
	}
	snap.chkFree = append(snap.chkFree, snap.chkFree[0])
	if err := e.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := e.Run(); !errors.Is(err, ErrInvariant) {
		t.Fatalf("run after corrupted SRAM restore: err=%v, want ErrInvariant", err)
	}
}

// TestSnapshotSabotageSRAMOccupancy restores a snapshot whose engine
// SRAM occupancy counter is off by one in either direction. The
// checker compares the counter with its own block table, so the
// replay must trip ErrInvariant.
func TestSnapshotSabotageSRAMOccupancy(t *testing.T) {
	for _, delta := range []int{1, -1} {
		e := probedEngine(t)
		snap := e.Snapshot(nil)
		snap.used += delta
		if err := e.Restore(snap); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if _, err := e.Run(); !errors.Is(err, ErrInvariant) {
			t.Errorf("delta %+d: run after corrupted restore: err=%v, want ErrInvariant", delta, err)
		}
	}
}

// TestSnapshotCrossRunRejected re-initializes the engine for a new
// run and checks that the stale snapshot from the previous run is
// refused: the arena was re-carved, so restoring it would corrupt the
// new run's state.
func TestSnapshotCrossRunRejected(t *testing.T) {
	cfg, nets := snapshotWorkload(t)
	e, err := NewEngine(cfg, nets, serial{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot(nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Re-initialize the same engine value for a fresh run; the old
	// snapshot's runID is now stale.
	if err := e.init(cfg, nets, serial{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(snap); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("Restore of stale snapshot: err=%v, want ErrSnapshot", err)
	}
}

// TestSnapshotStorageReuse checks that reusing one Snapshot across
// captures allocates nothing once warm — the property the speculative
// scheduler's hot path depends on.
func TestSnapshotStorageReuse(t *testing.T) {
	e := probedEngine(t)
	snap := e.Snapshot(nil)
	allocs := testing.AllocsPerRun(50, func() {
		snap = e.Snapshot(snap)
	})
	if allocs > 0 {
		t.Errorf("Snapshot into reused storage allocates %.1f objects/op, want 0", allocs)
	}
}

// TestNoteLookaheadDisabledAllocFree checks NoteLookahead's nil
// guards: with neither a registry nor a ledger attached, a committed
// speculation records nothing and the note itself allocates nothing —
// the disabled-observability hot path stays free.
func TestNoteLookaheadDisabledAllocFree(t *testing.T) {
	v := &View{}
	allocs := testing.AllocsPerRun(100, func() {
		v.NoteLookahead(MBRef{}, 1024, 7)
	})
	if allocs > 0 {
		t.Errorf("NoteLookahead with observability disabled allocates %.1f objects/op, want 0", allocs)
	}
}
