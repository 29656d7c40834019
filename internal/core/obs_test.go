package core

import (
	"testing"

	"aimt/internal/compiler"
	"aimt/internal/obs"
	"aimt/internal/sim"
)

// TestLedgerMatchesResult replays a capacity-pressured mix with the
// full mechanism stack and reconciles the decision ledger and metric
// counters against the simulator's Result: every prefetch, split and
// eviction the engine counted must appear in the ledger with a cycle
// inside the run and a coherent stall attribution.
func TestLedgerMatchesResult(t *testing.T) {
	cfg := testConfig() // 8 SRAM blocks
	// The split-triggering mix from TestSplitTriggersUnderPressure:
	// one long compute block holds the PE while 4-block fetches need
	// protected windows, so evictions and splits both fire.
	nets := []*compiler.CompiledNetwork{
		oneLayer("comp", cfg, 2, 2000, 4, 1),
		oneLayer("mem", cfg, 60, 8, 20, 4),
	}
	reg := obs.NewRegistry()
	led := obs.NewLedger(0)
	res, err := sim.Run(cfg, nets, New(cfg, All()), sim.Options{
		CheckInvariants: true, Metrics: reg, Ledger: led,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ledger decision counts reconcile with the Result.
	if got := led.CountKind(obs.KindMBPrefetch); got != int64(res.MBCount) {
		t.Errorf("ledger prefetches = %d, Result.MBCount = %d", got, res.MBCount)
	}
	if res.Splits == 0 {
		t.Fatal("mix produced no splits; the reconciliation test needs them")
	}
	if got := led.CountKind(obs.KindCBSplit); got != int64(res.Splits) {
		t.Errorf("ledger splits = %d, Result.Splits = %d", got, res.Splits)
	}

	// Metric counters agree with both the Result and the ledger.
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	if got := counter("aimt_sim_mb_prefetch_total"); got != int64(res.MBCount) {
		t.Errorf("prefetch counter = %d, want %d", got, res.MBCount)
	}
	if got := counter("aimt_sim_mb_completed_total"); got != int64(res.MBCount) {
		t.Errorf("mb completed counter = %d, want %d", got, res.MBCount)
	}
	if got := counter("aimt_sim_cb_completed_total"); got != int64(res.CBCount) {
		t.Errorf("cb completed counter = %d, want %d", got, res.CBCount)
	}
	if got := counter("aimt_sim_cb_splits_total"); got != int64(res.Splits) {
		t.Errorf("split counter = %d, want %d", got, res.Splits)
	}
	if got := counter("aimt_sim_evictions_total"); got != led.CountKind(obs.KindEarlyEvict) {
		t.Errorf("eviction counter = %d, ledger = %d", got, led.CountKind(obs.KindEarlyEvict))
	}
	if got := counter("aimt_sim_mem_busy_cycles_total"); got != int64(res.MemBusy) {
		t.Errorf("mem busy counter = %d, Result.MemBusy = %d", got, res.MemBusy)
	}
	if got := counter("aimt_sim_pe_busy_cycles_total"); got != int64(res.PEBusy) {
		t.Errorf("pe busy counter = %d, Result.PEBusy = %d", got, res.PEBusy)
	}
	if got := counter("aimt_sim_nets_finished_total"); got != int64(len(nets)) {
		t.Errorf("nets finished counter = %d, want %d", got, len(nets))
	}

	// Every decision is attributed to a cycle inside the run, a valid
	// block, and a coherent stall cause; evictions and splits are
	// pe-bound by construction (both recover SRAM capacity).
	led.Each(func(d obs.Decision) bool {
		if d.Cycle < 0 || d.Cycle > res.Makespan {
			t.Errorf("decision %d (%s) at cycle %d outside run [0,%d]", d.Seq, d.Kind, d.Cycle, res.Makespan)
		}
		if d.Net < 0 || d.Net >= len(nets) || d.Layer != 0 {
			t.Errorf("decision %d (%s) names net %d layer %d", d.Seq, d.Kind, d.Net, d.Layer)
		}
		if d.SRAMUsed < 0 || d.SRAMUsed > d.SRAMTotal || d.SRAMTotal != cfg.WeightBlocks() {
			t.Errorf("decision %d: SRAM %d/%d", d.Seq, d.SRAMUsed, d.SRAMTotal)
		}
		switch d.Kind {
		case obs.KindEarlyEvict, obs.KindCBSplit:
			if d.Stall != obs.StallPE {
				t.Errorf("decision %d (%s) attributed to %q, want %q", d.Seq, d.Kind, d.Stall, obs.StallPE)
			}
		case obs.KindMBPrefetch, obs.KindCBMerge:
			if d.Stall != obs.StallNone && d.Stall != obs.StallHBM && d.Stall != obs.StallPE {
				t.Errorf("decision %d (%s) has unknown stall %q", d.Seq, d.Kind, d.Stall)
			}
		default:
			t.Errorf("decision %d has unknown kind %q", d.Seq, d.Kind)
		}
		if d.Detail <= 0 {
			t.Errorf("decision %d (%s) has non-positive detail %d", d.Seq, d.Kind, d.Detail)
		}
		return true
	})
	if led.CountKind(obs.KindEarlyEvict) == 0 {
		t.Error("mix produced no early-eviction reservations; expected capacity pressure to trigger them")
	}
}

// TestObsDisabledMatchesEnabled pins that attaching observability
// cannot change scheduling: the same mix with and without a registry
// and ledger produces identical results.
func TestObsDisabledMatchesEnabled(t *testing.T) {
	cfg := testConfig()
	nets := mixedLoad(cfg)
	plain, err := sim.Run(cfg, nets, New(cfg, All()), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nets2 := mixedLoad(cfg)
	instr, err := sim.Run(cfg, nets2, New(cfg, All()), sim.Options{
		Metrics: obs.NewRegistry(), Ledger: obs.NewLedger(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != instr.Makespan || plain.MBCount != instr.MBCount ||
		plain.CBCount != instr.CBCount || plain.Splits != instr.Splits {
		t.Errorf("observability changed the run: %+v vs %+v", plain, instr)
	}
}
