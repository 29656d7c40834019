package sim

import (
	"reflect"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/obs"
)

// TestBlockHistogramsFlushEveryLoop pins that the block-size
// histograms, recorded run-local, are in the registry whenever Run or
// StepUntil returns: after every partial step each holds one
// observation per completed block, and a stepped run ends with the
// registry snapshot of an unstepped one.
func TestBlockHistogramsFlushEveryLoop(t *testing.T) {
	cfg := testConfig()
	nets := func() []*compiler.CompiledNetwork {
		return []*compiler.CompiledNetwork{
			chainNet("a", cfg, layerSpec{mb: 4, cb: 16, iters: 8, blocks: 1}, layerSpec{mb: 8, cb: 8, iters: 8, blocks: 2}),
			chainNet("b", cfg, layerSpec{mb: 16, cb: 4, iters: 8, blocks: 4}, layerSpec{mb: 2, cb: 24, iters: 8, blocks: 1}),
		}
	}
	whole := obs.NewRegistry()
	if _, err := Run(cfg, nets(), &scratchSerial{}, Options{Metrics: whole}); err != nil {
		t.Fatal(err)
	}

	stepped := obs.NewRegistry()
	e, err := NewEngine(cfg, nets(), &scratchSerial{}, Options{Metrics: stepped})
	if err != nil {
		t.Fatal(err)
	}
	for limit := arch.Cycles(0); ; limit += 37 {
		done, err := e.StepUntil(limit)
		if err != nil {
			t.Fatal(err)
		}
		snap := stepped.Snapshot()
		if mb, cb := snap.Histograms["aimt_sim_mb_cycles"].Count, snap.Histograms["aimt_sim_cb_cycles"].Count; int64(mb) != snap.Counters["aimt_sim_mb_completed_total"] ||
			int64(cb) != snap.Counters["aimt_sim_cb_completed_total"] {
			t.Fatalf("at cycle %d the histograms hold %d MBs and %d CBs, the counters %d and %d", limit, mb, cb,
				snap.Counters["aimt_sim_mb_completed_total"], snap.Counters["aimt_sim_cb_completed_total"])
		}
		if done {
			break
		}
	}
	if got, want := stepped.Snapshot(), whole.Snapshot(); !reflect.DeepEqual(got.Histograms, want.Histograms) || !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("stepped run's registry %+v, want %+v", got, want)
	}
}
