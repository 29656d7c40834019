package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/sim"
)

func testConfig() arch.Config {
	return arch.Config{
		PEDim:        4,
		NumArrays:    4,
		FreqHz:       1_000_000_000,
		MemBandwidth: 1_000_000_000,
		WeightSRAM:   8 * 16, // 8 blocks
		IOSRAM:       1 << 20,
		WeightBytes:  1,
		FillLatency:  2,
	}
}

func oneLayer(name string, cfg arch.Config, mb, cb arch.Cycles, iters, blocks int) *compiler.CompiledNetwork {
	return &compiler.CompiledNetwork{
		Name: name, Batch: 1,
		Layers: []compiler.CompiledLayer{{
			Name: name + "0", MBCycles: mb, CBCycles: cb, Iters: iters,
			MBBlocks: blocks, MBBytes: cfg.BlockBytes() * arch.Bytes(blocks),
		}},
	}
}

// mixedLoad returns a compute-heavy net and a memory-heavy net whose
// totals are balanced: total CB 600 vs total MB 620, so the workload
// is (barely) memory-... compute decided per shape below.
func mixedLoad(cfg arch.Config) []*compiler.CompiledNetwork {
	return []*compiler.CompiledNetwork{
		// compute-intensive: MB 2, CB 60, 10 sub-layers (CB total 600).
		oneLayer("comp", cfg, 2, 60, 10, 1),
		// memory-intensive: MB 50, CB 10, 10 sub-layers (MB total 500).
		oneLayer("mem", cfg, 50, 10, 10, 4),
	}
}

func runWith(t *testing.T, cfg arch.Config, nets []*compiler.CompiledNetwork, s sim.Scheduler) *sim.Result {
	t.Helper()
	res, err := sim.Run(cfg, nets, s, sim.Options{CheckInvariants: true})
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

func TestNames(t *testing.T) {
	cfg := testConfig()
	cases := map[string]Mechanisms{
		"AI-MT(PF)":       Prefetch(),
		"AI-MT(PF+Merge)": PrefetchMerge(),
		"AI-MT(All)":      All(),
		"AI-MT(PF+Evict)": {Evict: true},
	}
	for want, m := range cases {
		if got := New(cfg, m).Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", m, got, want)
		}
	}
}

func TestMechanismPresets(t *testing.T) {
	if m := Prefetch(); m.Merge || m.Evict || m.Split {
		t.Errorf("Prefetch() = %+v", m)
	}
	if m := PrefetchMerge(); !m.Merge || m.Evict {
		t.Errorf("PrefetchMerge() = %+v", m)
	}
	if m := All(); !m.Merge || !m.Evict || !m.Split {
		t.Errorf("All() = %+v", m)
	}
}

func TestAllVariantsCompleteAndRespectBound(t *testing.T) {
	cfg := testConfig()
	nets := mixedLoad(cfg)
	var mb, cb arch.Cycles
	for _, cn := range nets {
		s := cn.Stats()
		mb += s.MBCycles
		cb += s.CBCycles
	}
	lower := mb
	if cb > lower {
		lower = cb
	}
	for _, m := range []Mechanisms{Prefetch(), PrefetchMerge(), All(), {Evict: true, Split: true}} {
		res := runWith(t, cfg, nets, New(cfg, m))
		if res.Makespan < lower {
			t.Errorf("%+v: makespan %d below bound %d", m, res.Makespan, lower)
		}
		if res.CBCount != 20 {
			t.Errorf("%+v: executed %d CBs, want 20", m, res.CBCount)
		}
	}
}

func TestPrefetchBeatsDoubleBuffering(t *testing.T) {
	cfg := testConfig()
	nets := mixedLoad(cfg)
	pf := runWith(t, cfg, nets, New(cfg, Prefetch()))
	// A depth-2 serial reference: same candidate order but bounded
	// prefetch. Use the simulator's outstanding counter via a local
	// policy to avoid importing the sched package (cycle).
	serial := runWith(t, cfg, nets, &depth2{})
	if pf.Makespan > serial.Makespan {
		t.Errorf("prefetch (%d) slower than double buffering (%d)", pf.Makespan, serial.Makespan)
	}
	if pf.MemUtilization() < serial.MemUtilization() {
		t.Errorf("prefetch memory utilization %f below baseline %f",
			pf.MemUtilization(), serial.MemUtilization())
	}
}

// depth2 is a minimal double-buffered FIFO used as a local reference.
type depth2 struct {
	sim.NopHooks
	q []sim.CBRef
}

func (*depth2) Name() string { return "depth2" }

func (d *depth2) PickMB(v *sim.View) (sim.MBRef, bool) {
	if v.OutstandingMBs() >= 2 {
		return sim.MBRef{}, false
	}
	for _, m := range v.MBCandidates(nil) {
		if v.IsMBIssuable(m) {
			d.q = append(d.q, sim.CBRef{Net: m.Net, Layer: m.Layer, Iter: m.Iter})
			return m, true
		}
	}
	return sim.MBRef{}, false
}

func (d *depth2) PickCB(v *sim.View) (sim.CBRef, bool) {
	if len(d.q) == 0 {
		return sim.CBRef{}, false
	}
	return d.q[0], true
}

func (d *depth2) OnCBStart(v *sim.View, r sim.CBRef) {
	if len(d.q) > 0 && d.q[0] == r {
		d.q = d.q[1:]
	}
}

func TestMergeCoversFetches(t *testing.T) {
	cfg := testConfig()
	nets := mixedLoad(cfg)
	pf := runWith(t, cfg, nets, New(cfg, Prefetch()))
	// The decaying AVL_CB counter (the paper's accounting) trades a
	// bounded small-scale pacing overhead for robustness on real
	// mixes; allow it up to 20% here.
	mg := runWith(t, cfg, nets, New(cfg, PrefetchMerge()))
	if mg.Makespan > pf.Makespan*12/10 {
		t.Errorf("merge (%d) much slower than prefetch alone (%d)", mg.Makespan, pf.Makespan)
	}
	// With exact coverage accounting, the steering never fires on this
	// workload and merge matches plain prefetching.
	exact := runWith(t, cfg, nets, New(cfg, PrefetchMerge()).SetExactAVL(true))
	if exact.Makespan != pf.Makespan {
		t.Errorf("exact-AVL merge = %d, want %d (same as prefetch)", exact.Makespan, pf.Makespan)
	}
}

func TestEvictionHelpsUnderCapacityPressure(t *testing.T) {
	cfg := testConfig() // 8 blocks only
	// Compute-bound mix with capacity-critical 4-block fetches: the
	// memory net's blocks can only flow if windows are protected.
	nets := []*compiler.CompiledNetwork{
		oneLayer("comp", cfg, 2, 80, 12, 1),
		oneLayer("mem", cfg, 60, 8, 12, 4),
	}
	mg := runWith(t, cfg, nets, New(cfg, PrefetchMerge()))
	all := runWith(t, cfg, nets, New(cfg, All()))
	if all.Makespan > mg.Makespan {
		t.Errorf("eviction hurt: All %d vs Merge %d", all.Makespan, mg.Makespan)
	}
}

func TestAdaptiveEvictionDisabledWhenMemoryBound(t *testing.T) {
	cfg := testConfig()
	// Memory-bound mix: total MB 1200 >> total CB 300. Eviction must
	// deactivate, making All behave like Merge.
	nets := []*compiler.CompiledNetwork{
		oneLayer("mem", cfg, 100, 10, 12, 4),
		oneLayer("comp", cfg, 2, 15, 12, 1),
	}
	mg := runWith(t, cfg, nets, New(cfg, PrefetchMerge()))
	all := runWith(t, cfg, nets, New(cfg, All()))
	if all.Makespan != mg.Makespan {
		t.Errorf("memory-bound mix: All %d != Merge %d (eviction should be inactive)",
			all.Makespan, mg.Makespan)
	}
}

func TestSplitTriggersUnderPressure(t *testing.T) {
	cfg := testConfig() // 8 blocks
	// One very long compute block holds the PE while the memory net's
	// 4-block fetches need windows: without split the channel starves
	// behind it.
	nets := []*compiler.CompiledNetwork{
		oneLayer("comp", cfg, 2, 2000, 4, 1),
		oneLayer("mem", cfg, 60, 8, 20, 4),
	}
	noSplit := runWith(t, cfg, nets, New(cfg, Mechanisms{Merge: true, Evict: true}))
	withSplit := runWith(t, cfg, nets, New(cfg, All()))
	if withSplit.Splits == 0 {
		t.Error("no splits under sustained capacity pressure")
	}
	if withSplit.Makespan > noSplit.Makespan {
		t.Errorf("split hurt: %d vs %d without", withSplit.Makespan, noSplit.Makespan)
	}
}

func TestSettersChain(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, All()).SetMergeThreshold(123).SetPressureBlocks(7).SetExactAVL(false)
	if a.mergeThreshold != 123 || a.pressureBlocks != 7 || a.avlMode != avlLeaky {
		t.Errorf("setters did not apply: %+v", a)
	}
	a.SetExactAVL(true)
	if a.avlMode != avlExact {
		t.Error("SetExactAVL(true) did not pin exact mode")
	}
}

func TestHostBlockedNetsDeprioritized(t *testing.T) {
	cfg := testConfig()
	cfg.HostBandwidth = 1_000_000_000
	// net0's input transfer takes 500 cycles; net1's is instant. With
	// tiny SRAM, AI-MT must fetch net1's weights first even though
	// net0 comes first in arrival order.
	a := oneLayer("blocked", cfg, 10, 10, 4, 4)
	a.HostInBytes = 500
	b := oneLayer("ready", cfg, 10, 10, 4, 4)
	rec := &order{}
	if _, err := sim.Run(cfg, []*compiler.CompiledNetwork{a, b}, New(cfg, All()), sim.Options{Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.first("mem") != 1 {
		t.Errorf("first fetch went to host-blocked net %d", rec.first("mem"))
	}
}

type order struct{ mem []int }

func (o *order) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	if engine == "mem" {
		o.mem = append(o.mem, net)
	}
}

func (o *order) first(engine string) int {
	if len(o.mem) == 0 {
		return -1
	}
	return o.mem[0]
}

// TestWeightedPriorities: with weighted tenant scheduling, the
// high-weight network must finish earlier than an identical
// low-weight peer, and overall throughput must not collapse.
func TestWeightedPriorities(t *testing.T) {
	cfg := testConfig()
	mk := func() []*compiler.CompiledNetwork {
		return []*compiler.CompiledNetwork{
			oneLayer("a", cfg, 5, 25, 12, 1),
			oneLayer("b", cfg, 5, 25, 12, 1),
		}
	}
	uniform := runWith(t, cfg, mk(), New(cfg, All()))
	weighted := runWith(t, cfg, mk(), New(cfg, All()).SetPriorities([]float64{1, 8}))
	if weighted.NetFinish[1] >= weighted.NetFinish[0] {
		t.Errorf("high-weight net finished at %d, low-weight at %d", weighted.NetFinish[1], weighted.NetFinish[0])
	}
	if weighted.NetFinish[1] >= uniform.NetFinish[1] {
		t.Errorf("priority did not improve the tenant: %d vs uniform %d",
			weighted.NetFinish[1], uniform.NetFinish[1])
	}
	if float64(weighted.Makespan) > 1.1*float64(uniform.Makespan) {
		t.Errorf("weighted makespan %d far above uniform %d", weighted.Makespan, uniform.Makespan)
	}
}

// TestPreemptPriorities: a high-priority arrival halts a low-priority
// net's long compute block through the CB-split path and finishes far
// sooner than under fair rotation, while uniform priorities leave the
// scheduler a strict no-op.
func TestPreemptPriorities(t *testing.T) {
	cfg := testConfig()
	mk := func() []*compiler.CompiledNetwork {
		return []*compiler.CompiledNetwork{
			oneLayer("low", cfg, 2, 2000, 4, 1),
			oneLayer("high", cfg, 5, 20, 6, 1),
		}
	}
	opts := sim.Options{CheckInvariants: true, Arrivals: []arch.Cycles{0, 100}}
	fair, err := sim.Run(cfg, mk(), New(cfg, All()), opts)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := sim.Run(cfg, mk(), New(cfg, All()).SetPreemptPriorities([]int{0, 5}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Splits == 0 {
		t.Error("no splits: the high-priority arrival never preempted the executing block")
	}
	if pre.NetFinish[1] >= fair.NetFinish[1] {
		t.Errorf("preemption did not help the high class: finish %d vs fair %d",
			pre.NetFinish[1], fair.NetFinish[1])
	}
	// Work is conserved: the low class still completes everything.
	if pre.CBCount != fair.CBCount {
		t.Errorf("CB count %d != fair %d", pre.CBCount, fair.CBCount)
	}
	// Uniform priorities must be bit-identical to the plain scheduler —
	// the control plane is a strict no-op when every class is equal.
	uni, err := sim.Run(cfg, mk(), New(cfg, All()).SetPreemptPriorities([]int{3, 3}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uni, fair) {
		t.Errorf("uniform priorities changed the run:\n got %+v\nwant %+v", uni, fair)
	}
	if got := New(cfg, All()).SetPreemptPriorities([]int{3, 3}).Name(); got != "AI-MT(All)" {
		t.Errorf("uniform priorities changed the name to %q", got)
	}
	if got := New(cfg, All()).SetPreemptPriorities([]int{0, 5}).Name(); got != "AI-MT(All)+Prio" {
		t.Errorf("Name() = %q, want AI-MT(All)+Prio", got)
	}
}

// TestPropertyAIMTNeverDeadlocks drives every mechanism set over
// random multi-network workloads — including capacity-critical blocks
// larger than half the buffer — checking completion, the makespan
// lower bound, and SRAM invariants.
func TestPropertyAIMTNeverDeadlocks(t *testing.T) {
	cfg := testConfig() // 8 blocks
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var nets []*compiler.CompiledNetwork
		var mbTot, cbTot, subs arch.Cycles
		for n := 0; n < 1+rng.Intn(3); n++ {
			cn := &compiler.CompiledNetwork{Name: "n", Batch: 1}
			layers := 1 + rng.Intn(4)
			for l := 0; l < layers; l++ {
				blocks := 1 + rng.Intn(5) // up to 5 of 8 blocks
				cl := compiler.CompiledLayer{
					Name:     "l",
					MBCycles: arch.Cycles(1 + rng.Intn(60)),
					CBCycles: arch.Cycles(1 + rng.Intn(80)),
					Iters:    1 + rng.Intn(6),
					MBBlocks: blocks,
					MBBytes:  cfg.BlockBytes() * arch.Bytes(blocks),
				}
				if l > 0 {
					cl.Deps = []int{l - 1}
					cn.Layers[l-1].Posts = append(cn.Layers[l-1].Posts, l)
				}
				mbTot += cl.MBCycles * arch.Cycles(cl.Iters)
				cbTot += cl.CBCycles * arch.Cycles(cl.Iters)
				subs += arch.Cycles(cl.Iters)
				cn.Layers = append(cn.Layers, cl)
			}
			nets = append(nets, cn)
		}
		lower := mbTot
		if cbTot > lower {
			lower = cbTot
		}
		for _, m := range []Mechanisms{Prefetch(), PrefetchMerge(), All()} {
			res, err := sim.Run(cfg, nets, New(cfg, m), sim.Options{CheckInvariants: true})
			if err != nil {
				t.Logf("seed %d %+v: %v", seed, m, err)
				return false
			}
			if res.Makespan < lower {
				t.Logf("seed %d %+v: makespan %d below bound %d", seed, m, res.Makespan, lower)
				return false
			}
			if arch.Cycles(res.CBCount) != subs {
				t.Logf("seed %d %+v: %d CBs, want %d", seed, m, res.CBCount, subs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The full design on the synthetic mixed load must beat FIFO-like
// serial execution by a clear margin — the paper's qualitative claim
// at miniature scale.
func TestAIMTBeatsSerialOnMixedLoad(t *testing.T) {
	cfg := testConfig()
	nets := mixedLoad(cfg)
	serial := runWith(t, cfg, nets, &depth2{})
	all := runWith(t, cfg, nets, New(cfg, All()))
	if sp := float64(serial.Makespan) / float64(all.Makespan); sp < 1.2 {
		t.Errorf("AI-MT speedup = %.3f over serial, want >= 1.2", sp)
	}
}
