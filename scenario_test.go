package aimt

import (
	"testing"

	"aimt/internal/compiler"
	"aimt/internal/core"
	"aimt/internal/sched"
)

// Scenario tests reproducing the paper's illustrative timeline figures
// (Figs 6, 9, 12, 13) with synthetic block patterns: the mechanisms'
// qualitative effects must appear exactly as drawn.

// scenarioConfig is a miniature machine: block = 16 B, 8-block SRAM.
func scenarioConfig(sramBlocks int) Config {
	return Config{
		PEDim:        4,
		NumArrays:    4,
		FreqHz:       1_000_000_000,
		MemBandwidth: 1_000_000_000,
		WeightSRAM:   Bytes(sramBlocks) * 16,
		IOSRAM:       1 << 20,
		WeightBytes:  1,
		FillLatency:  2,
	}
}

// block builds a single-layer network of identical sub-layers.
func block(name string, cfg Config, mb, cb Cycles, iters, blocks int) *Compiled {
	return &compiler.CompiledNetwork{
		Name: name, Batch: 1,
		Layers: []compiler.CompiledLayer{{
			Name: name, MBCycles: mb, CBCycles: cb, Iters: iters,
			MBBlocks: blocks, MBBytes: cfg.BlockBytes() * Bytes(blocks),
		}},
	}
}

// Fig 6: with three networks of differing resource intensity, FIFO's
// network-serial execution produces long single-resource phases; the
// overall utilizations stay low under every static baseline.
func TestScenarioFig6BaselineIdleness(t *testing.T) {
	cfg := scenarioConfig(8)
	nets := []*Compiled{
		block("comp", cfg, 2, 40, 6, 1), // compute-intensive
		block("mem", cfg, 40, 4, 6, 4),  // memory-intensive
		block("mixed", cfg, 10, 12, 6, 2) /* balanced */}
	for _, s := range []Scheduler{sched.NewFIFO(), sched.NewRR()} {
		res, err := Run(cfg, nets, s, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.PEUtilization() > 0.9 && res.MemUtilization() > 0.9 {
			t.Errorf("%s: both resources near-saturated (%.2f/%.2f) — the scenario should show idleness",
				s.Name(), res.PEUtilization(), res.MemUtilization())
		}
	}
}

// Fig 12a->12b: MB prefetching fills the memory idleness the RR
// baseline leaves (Part-1) and pulls compute blocks earlier (Part-2).
func TestScenarioFig12Prefetching(t *testing.T) {
	cfg := scenarioConfig(8)
	// The paper's Part-1/Part-2 pattern: during the compute net's long
	// CBs the conventional pipeline's double buffering (at most two
	// outstanding fetches) leaves the channel idle, pushing the
	// memory net's work into a serial tail. Prefetching regardless of
	// sub-layer boundaries fills that idle bandwidth.
	nets := []*Compiled{
		block("comp", cfg, 2, 200, 6, 1),
		block("mem", cfg, 30, 5, 24, 1),
	}
	rr, err := Run(cfg, nets, sched.NewRR(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Run(cfg, nets, core.New(cfg, core.Prefetch()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Makespan >= rr.Makespan {
		t.Errorf("prefetching did not help: %d vs RR %d", pf.Makespan, rr.Makespan)
	}
	if pf.MemUtilization() <= rr.MemUtilization() {
		t.Errorf("memory utilization did not rise: %.2f vs %.2f", pf.MemUtilization(), rr.MemUtilization())
	}
}

// Fig 12b->12c: CB merging keeps the PE complex covered while large
// fetches are in flight; PE utilization must not drop versus
// prefetching alone.
func TestScenarioFig12Merging(t *testing.T) {
	cfg := scenarioConfig(8)
	nets := []*Compiled{
		block("comp", cfg, 2, 40, 8, 1),
		block("mem", cfg, 60, 4, 8, 4),
	}
	pf, err := Run(cfg, nets, core.New(cfg, core.Prefetch()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := Run(cfg, nets, core.New(cfg, core.PrefetchMerge()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(mg.Makespan) > 1.1*float64(pf.Makespan) {
		t.Errorf("merging regressed: %d vs PF %d", mg.Makespan, pf.Makespan)
	}
}

// Fig 9a vs 9b: the compute-first prefetch-everything order achieves
// high overlap with ample SRAM but collapses when the buffer is
// small — the capacity problem AI-MT's eviction solves.
func TestScenarioFig9CapacityCollapse(t *testing.T) {
	small := scenarioConfig(8)
	big := scenarioConfig(4096)
	nets := func(cfg Config) []*Compiled {
		return []*Compiled{
			block("comp", cfg, 2, 60, 10, 1),
			block("mem", cfg, 50, 5, 10, 4),
		}
	}
	memHeavy := []bool{false, true}

	run := func(cfg Config) (fifo, cf Cycles) {
		f, err := Run(cfg, nets(cfg), sched.NewFIFO(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Run(cfg, nets(cfg), sched.NewComputeFirst(memHeavy), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return f.Makespan, c.Makespan
	}
	fifoBig, cfBig := run(big)
	fifoSmall, cfSmall := run(small)
	spBig := float64(fifoBig) / float64(cfBig)
	spSmall := float64(fifoSmall) / float64(cfSmall)
	if spBig <= spSmall {
		t.Errorf("compute-first speedup with ample SRAM (%.3f) not above limited SRAM (%.3f)", spBig, spSmall)
	}
	if spBig < 1.15 {
		t.Errorf("compute-first with ample SRAM speedup = %.3f, want clear overlap", spBig)
	}
}

// Fig 13: under SRAM shortage with large compute blocks, the eviction
// mechanisms (priority, smallest-first recovery, split) must recover
// memory throughput versus merge-only scheduling.
func TestScenarioFig13Eviction(t *testing.T) {
	cfg := scenarioConfig(8)
	nets := []*Compiled{
		block("bigcb", cfg, 2, 500, 8, 1), // large CBs fill the timeline
		block("crit", cfg, 60, 8, 24, 4),  // capacity-critical fetches
		block("small", cfg, 2, 30, 16, 1), // small CBs for recovery
	}
	mg, err := Run(cfg, nets, core.New(cfg, core.PrefetchMerge()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(cfg, nets, core.New(cfg, core.All()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Makespan > mg.Makespan {
		t.Errorf("eviction regressed: All %d vs Merge %d", all.Makespan, mg.Makespan)
	}
	if all.MemUtilization() < mg.MemUtilization()-0.01 {
		t.Errorf("eviction lowered memory utilization: %.3f vs %.3f",
			all.MemUtilization(), mg.MemUtilization())
	}
}
