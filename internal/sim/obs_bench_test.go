package sim

import (
	"testing"

	"aimt/internal/compiler"
	"aimt/internal/obs"
)

// obsBenchNets is a two-net event-dense workload for the
// observability overhead benchmarks: many small sub-layers keep the
// engine's event loop (and therefore the instrumentation funnels)
// hot.
func obsBenchNets(b *testing.B) []*compiler.CompiledNetwork {
	cfg := testConfig()
	return []*compiler.CompiledNetwork{
		chainNet("a", cfg,
			layerSpec{mb: 4, cb: 16, iters: 64, blocks: 1},
			layerSpec{mb: 8, cb: 8, iters: 64, blocks: 2},
		),
		chainNet("b", cfg,
			layerSpec{mb: 16, cb: 4, iters: 64, blocks: 4},
			layerSpec{mb: 2, cb: 24, iters: 64, blocks: 1},
		),
	}
}

func benchRun(b *testing.B, opts Options) {
	cfg := testConfig()
	nets := obsBenchNets(b)
	sch := &scratchSerial{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, nets, sch, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineObsDisabled is the instrumented-but-disabled path:
// the observability seams are compiled in but no registry or ledger
// is attached, so every emission site is a nil check.
func BenchmarkEngineObsDisabled(b *testing.B) {
	benchRun(b, Options{})
}

// BenchmarkEngineObsEnabled attaches a registry and ledger, measuring
// the full emission cost: atomic counter/gauge updates per event plus
// one locked ring append per scheduler decision.
func BenchmarkEngineObsEnabled(b *testing.B) {
	benchRun(b, Options{Metrics: obs.NewRegistry(), Ledger: obs.NewLedger(0)})
}

// scratchSerial is serial with reused candidate buffers, so the
// scheduler itself allocates nothing per decision and the allocation
// test below isolates the engine's own per-event cost.
type scratchSerial struct {
	NopHooks
	mbuf []MBRef
	cbuf []CBRef
}

func (*scratchSerial) Name() string { return "scratch-serial" }

func (s *scratchSerial) PickMB(v *View) (MBRef, bool) {
	s.mbuf = v.MBCandidates(s.mbuf[:0])
	for _, m := range s.mbuf {
		if v.IsMBIssuable(m) {
			return m, true
		}
	}
	return MBRef{}, false
}

func (s *scratchSerial) PickCB(v *View) (CBRef, bool) {
	s.cbuf = v.ReadyCBs(s.cbuf[:0])
	if len(s.cbuf) == 0 {
		return CBRef{}, false
	}
	return s.cbuf[0], true
}

// TestDisabledObsAddsNoPerEventAllocations pins the zero-cost claim
// for the disabled path: growing the event count 8x must not grow the
// run's allocation count with it (per-event trace strings or ledger
// entries would). Only fixed setup (result slices, frontier state,
// the event heap's high-water mark) may allocate.
func TestDisabledObsAddsNoPerEventAllocations(t *testing.T) {
	cfg := testConfig()
	run := func(iters int) float64 {
		return testing.AllocsPerRun(20, func() {
			cn := chainNet("n", cfg, layerSpec{mb: 2, cb: 4, iters: iters, blocks: 1})
			if _, err := Run(cfg, []*compiler.CompiledNetwork{cn}, &scratchSerial{}, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(64), run(512)
	// 448 extra MB+CB pairs; with any per-event allocation the delta
	// would be in the hundreds.
	if delta := large - small; delta > 32 {
		t.Errorf("8x the events grew allocations by %.0f (%.0f -> %.0f); disabled path is not allocation-free",
			delta, small, large)
	}
}

// TestDisabledObsAddsNoPerEventAllocationsChained repeats the pin for
// a transformer-style multi-phase stream: a prefill instance with N
// decode instances chained behind it. Chain bookkeeping is O(nets)
// setup; per-event cost must stay allocation-free.
func TestDisabledObsAddsNoPerEventAllocationsChained(t *testing.T) {
	cfg := testConfig()
	run := func(iters int) float64 {
		chain := []int{-1, 0, 1, 2}
		return testing.AllocsPerRun(20, func() {
			nets := []*compiler.CompiledNetwork{
				chainNet("prefill", cfg, layerSpec{mb: 2, cb: 4, iters: iters, blocks: 1}),
				chainNet("dec1", cfg, layerSpec{mb: 4, cb: 2, iters: iters, blocks: 1}),
				chainNet("dec2", cfg, layerSpec{mb: 4, cb: 2, iters: iters, blocks: 1}),
				chainNet("dec3", cfg, layerSpec{mb: 4, cb: 2, iters: iters, blocks: 1}),
			}
			if _, err := Run(cfg, nets, &scratchSerial{}, Options{ChainAfter: chain}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(64), run(512)
	if delta := large - small; delta > 32 {
		t.Errorf("8x the events grew allocations by %.0f (%.0f -> %.0f); chained disabled path is not allocation-free",
			delta, small, large)
	}
}
