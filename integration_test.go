package aimt

import (
	"testing"

	"aimt/internal/serve"
	"aimt/internal/workload"
)

// Whole-stack integration tests: compile real zoo networks, build
// balanced mixes, and simulate under every policy, asserting the
// cross-cutting invariants and the behaviours the per-package suites
// cannot see.

// allSchedulers builds the paper's baselines and the AI-MT ablation
// for a mix through the scheduler registry.
func allSchedulers(t testing.TB, cfg Config, mix *workload.Mix) []Scheduler {
	t.Helper()
	var out []Scheduler
	for _, name := range []string{"FIFO", "RR", "Greedy", "SJF", "Greedy+PF", "ComputeFirst+PF",
		"AI-MT(PF)", "AI-MT(PF+Merge)", "AI-MT"} {
		e, err := SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e.New(cfg, SchedulerInput{MemHeavy: mix.MemHeavy}))
	}
	return out
}

// TestEveryPolicyOnEveryMix runs the full policy matrix over the
// paper's eight mixes with SRAM invariant checking enabled.
func TestEveryPolicyOnEveryMix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow")
	}
	cfg := PaperConfig()
	for _, spec := range PaperMixes() {
		mix, err := BuildMix(cfg, spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ideal := IdealBound(mix.Nets)
		var blocks int
		for _, cn := range mix.Nets {
			blocks += cn.Stats().SubLayers
		}
		for _, s := range allSchedulers(t, cfg, mix) {
			res, err := Run(cfg, mix.Nets, s, RunOptions{CheckInvariants: true})
			if err != nil {
				t.Errorf("%s under %s: %v", mix.Name, s.Name(), err)
				continue
			}
			if res.Makespan < ideal {
				t.Errorf("%s under %s: makespan %d below ideal bound %d",
					mix.Name, s.Name(), res.Makespan, ideal)
			}
			if res.MBCount != blocks || res.CBCount != blocks {
				t.Errorf("%s under %s: %d MBs / %d CBs, want %d each",
					mix.Name, s.Name(), res.MBCount, res.CBCount, blocks)
			}
			if peak := res.SRAMPeakBytes(); peak > cfg.WeightSRAM {
				t.Errorf("%s under %s: SRAM peak %d exceeds capacity %d",
					mix.Name, s.Name(), peak, cfg.WeightSRAM)
			}
			for i, fin := range res.NetFinish {
				if fin <= 0 || fin > res.Makespan {
					t.Errorf("%s under %s: net %d finish %d out of range",
						mix.Name, s.Name(), i, fin)
				}
			}
		}
	}
}

// TestDeterminism verifies that repeated runs of the same workload
// under the same policy produce identical results — the engine and
// all schedulers must be deterministic.
func TestDeterminism(t *testing.T) {
	cfg := PaperConfig()
	mix, err := BuildMix(cfg, PaperMixes()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewRR() },
		func() Scheduler { return NewAIMT(cfg, AllMechanisms()) },
	} {
		a, err := Run(cfg, mix.Nets, mk(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, mix.Nets, mk(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan != b.Makespan || a.Splits != b.Splits || a.MBCount != b.MBCount {
			t.Errorf("%s nondeterministic: %d/%d vs %d/%d", a.Scheduler,
				a.Makespan, a.Splits, b.Makespan, b.Splits)
		}
	}
}

// TestMemoryBoundMixAdaptation: on a memory-bound mix (MN+GNMT), the
// full design must not fall behind merge-only — adaptive eviction
// keeps the channel saturated (DESIGN.md §5).
func TestMemoryBoundMixAdaptation(t *testing.T) {
	cfg := PaperConfig()
	mix, err := BuildMix(cfg, PaperMixes()[2], 1) // MN+GNMT
	if err != nil {
		t.Fatal(err)
	}
	merge, err := SchedulerByName("AI-MT(PF+Merge)")
	if err != nil {
		t.Fatal(err)
	}
	mg, err := Run(cfg, mix.Nets, merge.New(cfg, SchedulerInput{}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(cfg, mix.Nets, NewAIMT(cfg, AllMechanisms()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Makespan > mg.Makespan {
		t.Errorf("All (%d) behind Merge (%d) on memory-bound mix", all.Makespan, mg.Makespan)
	}
}

// TestHostBoundWorkload: when PCIe transfers dominate (large inputs,
// small networks), AI-MT must stay within a modest factor of the
// serial baseline — prefetch must not hoard SRAM for input-blocked
// networks.
func TestHostBoundWorkload(t *testing.T) {
	cfg := PaperConfig()
	b := NewNetwork("tiny-vision", 3, 320, 320)
	b.Conv("stem", 32, 3, 2, 1)
	b.Conv("body", 64, 3, 2, 1)
	b.GlobalPool("gap")
	b.FC("head", 1000)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cn, err := Compile(net, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	gnmt, err := Compile(GNMT(), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*Compiled{cn, cn, cn, gnmt}
	fifo, err := Run(cfg, nets, NewFIFO(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(cfg, nets, NewAIMT(cfg, AllMechanisms()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(all.Makespan) > 1.15*float64(fifo.Makespan) {
		t.Errorf("AI-MT %d vs FIFO %d on host-bound workload (>15%% regression)",
			all.Makespan, fifo.Makespan)
	}
}

// TestBatchSweepCompletes drives batches 1-32 across the GNMT mixes
// under the full design with invariant checks.
func TestBatchSweepCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	cfg := PaperConfig()
	for _, batch := range []int{1, 4, 16, 32} {
		for _, spec := range PaperMixes()[:4] {
			mix, err := BuildMix(cfg, spec, batch)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(cfg, mix.Nets, NewAIMT(cfg, AllMechanisms()), RunOptions{CheckInvariants: true}); err != nil {
				t.Errorf("%s batch %d: %v", spec.Name, batch, err)
			}
		}
	}
}

// TestTinySRAMCompletes pushes the weight buffer to its minimum (one
// FC memory block) under every policy that can run there.
func TestTinySRAMCompletes(t *testing.T) {
	cfg := PaperConfig()
	cfg.WeightSRAM = 256 * KiB // exactly one FC MB
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	mix, err := BuildMix(cfg, PaperMixes()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allSchedulers(t, cfg, mix) {
		res, err := Run(cfg, mix.Nets, s, RunOptions{CheckInvariants: true})
		if err != nil {
			t.Errorf("%s at 256 KiB: %v", s.Name(), err)
			continue
		}
		if res.SRAMPeakBytes() > cfg.WeightSRAM {
			t.Errorf("%s: peak %d over capacity", s.Name(), res.SRAMPeakBytes())
		}
	}
}

// TestIteratedMixInvariants runs the Fig 16 iterated continuous-
// arrival workload (16 network instances) at batch 8 under full AI-MT
// with SRAM invariant checking — the heaviest single scenario in the
// suite.
func TestIteratedMixInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy scenario")
	}
	cfg := PaperConfig()
	mix, err := workload.Build(cfg, PaperMixes()[3], workload.BuildOptions{Batch: 8, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, mix.Nets, NewAIMT(cfg, AllMechanisms()), RunOptions{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < IdealBound(mix.Nets) {
		t.Errorf("makespan %d below bound %d", res.Makespan, IdealBound(mix.Nets))
	}
	var blocks int
	for _, cn := range mix.Nets {
		blocks += cn.Stats().SubLayers
	}
	if res.CBCount != blocks {
		t.Errorf("executed %d CBs, want %d", res.CBCount, blocks)
	}
}

// TestArrivalStreamUnderAIMT runs an open-loop stream end to end: no
// request may start before it arrives, and every request completes.
func TestArrivalStreamUnderAIMT(t *testing.T) {
	cfg := PaperConfig()
	stream, err := serve.NewStream(cfg, []ServeClass{{Net: MobileNet()}, {Net: GNMT()}},
		ServeStreamOptions{Requests: 8, MeanGap: 30_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, stream.Nets, NewAIMT(cfg, AllMechanisms()),
		RunOptions{Arrivals: stream.Arrivals, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range stream.Nets {
		if res.NetFinish[i] < stream.Arrivals[i] {
			t.Errorf("request %d finished at %d before arriving at %d",
				i, res.NetFinish[i], stream.Arrivals[i])
		}
		if res.NetArrive[i] != stream.Arrivals[i] {
			t.Errorf("request %d arrival recorded as %d, want %d",
				i, res.NetArrive[i], stream.Arrivals[i])
		}
	}
}

// TestNoHostLink runs with the PCIe stage disabled (infinite
// bandwidth): networks finish exactly when their last CB does.
func TestNoHostLink(t *testing.T) {
	cfg := PaperConfig()
	cfg.HostBandwidth = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rn34, err := Compile(ResNet34(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, []*Compiled{rn34}, NewFIFO(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HostBusy != 0 {
		t.Errorf("host busy %d with link disabled", res.HostBusy)
	}
	if res.NetFinish[0] != res.Makespan {
		t.Errorf("finish %d != makespan %d without output transfer", res.NetFinish[0], res.Makespan)
	}
}
