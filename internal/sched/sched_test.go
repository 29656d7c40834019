package sched

import (
	"testing"

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
		WeightSRAM:   64 * 16,
		IOSRAM:       1 << 20,
		WeightBytes:  1,
		FillLatency:  2,
	}
}

// oneLayer builds a single-layer network with n sub-layers.
func oneLayer(name string, cfg arch.Config, mb, cb arch.Cycles, iters, blocks int) *compiler.CompiledNetwork {
	return &compiler.CompiledNetwork{
		Name: name, Batch: 1,
		Layers: []compiler.CompiledLayer{{
			Name: name + "0", MBCycles: mb, CBCycles: cb, Iters: iters,
			MBBlocks: blocks, MBBytes: cfg.BlockBytes() * arch.Bytes(blocks),
		}},
	}
}

// traceOrder records the order networks' memory blocks are issued.
type traceOrder struct{ nets []int }

func (o *traceOrder) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	if engine == "mem" {
		o.nets = append(o.nets, net)
	}
}

func run(t *testing.T, cfg arch.Config, nets []*compiler.CompiledNetwork, s sim.Scheduler) (*sim.Result, *traceOrder) {
	t.Helper()
	rec := &traceOrder{}
	res, err := sim.Run(cfg, nets, s, sim.Options{Tracer: rec, CheckInvariants: true})
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res, rec
}

func TestFIFOIsNetworkSerial(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 10, 10, 3, 1),
		oneLayer("b", cfg, 10, 10, 3, 1),
	}
	_, rec := run(t, cfg, nets, NewFIFO())
	want := []int{0, 0, 0, 1, 1, 1}
	for i, n := range rec.nets {
		if n != want[i] {
			t.Fatalf("FIFO issue order = %v, want %v", rec.nets, want)
		}
	}
}

func TestRRAlternates(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 10, 10, 3, 1),
		oneLayer("b", cfg, 10, 10, 3, 1),
	}
	_, rec := run(t, cfg, nets, NewRR())
	// Round-robin alternates while both have work.
	if rec.nets[0] == rec.nets[1] {
		t.Fatalf("RR issued %v, want alternation", rec.nets)
	}
	counts := map[int]int{}
	for _, n := range rec.nets[:4] {
		counts[n]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("RR first four issues %v, want 2+2", rec.nets[:4])
	}
}

func TestDoubleBufferingBoundsOutstanding(t *testing.T) {
	cfg := testConfig()
	// MBs are instant relative to CBs; depth-2 means the third MB
	// waits for the first CB to finish. Observed via SRAM peak: at
	// most 2 blocks resident.
	nets := []*compiler.CompiledNetwork{oneLayer("a", cfg, 1, 50, 8, 1)}
	res, _ := run(t, cfg, nets, NewFIFO())
	if res.SRAMPeakBlocks > 2 {
		t.Fatalf("FIFO peak = %d blocks, double buffering allows 2", res.SRAMPeakBlocks)
	}
}

func TestGreedyMatchesExecutingCB(t *testing.T) {
	cfg := testConfig()
	// Greedy sizes fetches against the executing compute block. The
	// decision of interest happens at t=40, when net1's fetch ends
	// mid-way through net0's 100-cycle CB (70 cycles remain): net2's
	// 95-cycle MB (distance 25) must beat net1's second 30-cycle MB
	// (distance 40). The unbounded-prefetch variant keeps the memory
	// engine free to choose.
	nets := []*compiler.CompiledNetwork{
		oneLayer("long", cfg, 10, 100, 1, 1),
		oneLayer("small", cfg, 30, 5, 2, 1),
		oneLayer("near", cfg, 95, 5, 1, 1),
	}
	_, rec := run(t, cfg, nets, NewGreedyPrefetch())
	// t=0: PE idle, target 0 -> smallest MB (net0, 10). t=10: PE still
	// idle at decision time -> smallest remaining (net1, 30). t=40:
	// net0's CB executes with 70 remaining -> net2.
	want := []int{0, 1, 2, 1}
	for i, n := range want {
		if rec.nets[i] != n {
			t.Fatalf("greedy order = %v, want %v", rec.nets, want)
		}
	}
}

func TestSJFPicksSmallestJob(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("big", cfg, 30, 60, 1, 1),
		oneLayer("small", cfg, 20, 10, 1, 1),
		oneLayer("mid", cfg, 25, 40, 1, 1),
	}
	_, rec := run(t, cfg, nets, NewSJF())
	// Job sizes max(MB,CB): 60, 20, 40 -> order 1, 2, 0.
	want := []int{1, 2, 0}
	for i, n := range want {
		if rec.nets[i] != n {
			t.Fatalf("SJF order = %v, want %v", rec.nets, want)
		}
	}
}

func TestComputeFirstDefersMemoryHeavy(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("mem", cfg, 50, 5, 2, 1),
		oneLayer("comp", cfg, 5, 50, 2, 1),
	}
	_, rec := run(t, cfg, nets, NewComputeFirst([]bool{true, false}))
	// All of net1's (compute) MBs issue before net0's.
	want := []int{1, 1, 0, 0}
	for i, n := range want {
		if rec.nets[i] != n {
			t.Fatalf("ComputeFirst order = %v, want %v", rec.nets, want)
		}
	}
}

func TestGreedyPrefetchUnbounded(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{oneLayer("a", cfg, 1, 50, 8, 1)}
	res, _ := run(t, cfg, nets, NewGreedyPrefetch())
	if res.SRAMPeakBlocks <= 2 {
		t.Fatalf("Greedy+PF peak = %d blocks, expected capacity-bounded prefetch beyond 2", res.SRAMPeakBlocks)
	}
}

func TestNames(t *testing.T) {
	cases := map[string]sim.Scheduler{
		"FIFO":            NewFIFO(),
		"RR":              NewRR(),
		"Greedy":          NewGreedy(),
		"Greedy+PF":       NewGreedyPrefetch(),
		"SJF":             NewSJF(),
		"ComputeFirst+PF": NewComputeFirst(nil),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestPREMATimeMultiplexes(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 10, 10, 2, 1),
		oneLayer("b", cfg, 10, 10, 2, 1),
	}
	_, rec := run(t, cfg, nets, NewPREMA(nil))
	// One network owns the machine until a layer boundary: both of its
	// sub-layers issue before the other network's.
	first := rec.nets[0]
	if rec.nets[1] != first {
		t.Fatalf("PREMA interleaved within a layer: %v", rec.nets)
	}
	if rec.nets[2] == first {
		t.Fatalf("PREMA did not hand over at the layer boundary: %v", rec.nets)
	}
}

func TestPREMAPriorityFavorsHighRate(t *testing.T) {
	cfg := testConfig()
	// Three equal networks; net 2 has 10x the token rate. After the
	// opening election (tokens all zero, lowest index wins), net 2
	// must run second — its tokens accrue fastest while waiting.
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 10, 10, 2, 1),
		oneLayer("b", cfg, 10, 10, 2, 1),
		oneLayer("c", cfg, 10, 10, 2, 1),
	}
	res, rec := run(t, cfg, nets, NewPREMA([]float64{1, 1, 10}))
	after := rec.nets[2]
	if after != 2 {
		t.Errorf("high-priority net ran %d-th: issue order %v", after, rec.nets)
	}
	if res.NetFinish[2] > res.NetFinish[1] {
		t.Errorf("high-priority net finished after low-priority: %v", res.NetFinish)
	}
}

func TestPREMACompletesMixedLoad(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 3, 20, 6, 1),
		oneLayer("b", cfg, 25, 4, 6, 4),
	}
	res, _ := run(t, cfg, nets, NewPREMA(nil))
	if res.CBCount != 12 {
		t.Errorf("PREMA executed %d CBs, want 12", res.CBCount)
	}
}

// All baselines complete a mixed two-network workload and respect the
// makespan lower bound.
func TestAllBaselinesComplete(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 3, 20, 6, 1),
		oneLayer("b", cfg, 25, 4, 6, 4),
	}
	var lower arch.Cycles
	for _, cn := range nets {
		s := cn.Stats()
		if s.CBCycles > lower {
			lower = s.CBCycles
		}
		if s.MBCycles > lower {
			lower = s.MBCycles
		}
	}
	for _, s := range []sim.Scheduler{
		NewFIFO(), NewRR(), NewGreedy(), NewGreedyPrefetch(), NewSJF(),
		NewComputeFirst([]bool{false, true}),
	} {
		res, _ := run(t, cfg, nets, s)
		if res.Makespan < lower {
			t.Errorf("%s makespan %d below bound %d", s.Name(), res.Makespan, lower)
		}
		if res.CBCount != 12 {
			t.Errorf("%s executed %d CBs, want 12", s.Name(), res.CBCount)
		}
	}
}
