package sched

import (
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/sim"
)

// TestEDFOrdersByDeadline: with three identical networks and inverted
// deadlines, EDF must issue the tightest-deadline network's memory
// blocks first, regardless of instance order.
func TestEDFOrdersByDeadline(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 10, 10, 3, 1),
		oneLayer("b", cfg, 10, 10, 3, 1),
		oneLayer("c", cfg, 10, 10, 3, 1),
	}
	// Net 2 has the earliest deadline, then 1, then 0.
	_, rec := run(t, cfg, nets, NewEDF([]arch.Cycles{3000, 2000, 1000}))
	want := []int{2, 2, 2, 1, 1, 1, 0, 0, 0}
	if len(rec.nets) != len(want) {
		t.Fatalf("issued %d MBs, want %d", len(rec.nets), len(want))
	}
	for i, n := range want {
		if rec.nets[i] != n {
			t.Fatalf("MB issue order %v, want %v", rec.nets, want)
		}
	}
}

// TestEDFWithoutDeadlinesFallsBackToOrder: nil deadlines sort every
// network last equally, so candidate order (lowest net first) wins and
// the run completes with the usual invariants.
func TestEDFWithoutDeadlinesFallsBackToOrder(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 10, 10, 2, 1),
		oneLayer("b", cfg, 10, 10, 2, 1),
	}
	_, rec := run(t, cfg, nets, NewEDF(nil))
	if rec.nets[0] != 0 {
		t.Errorf("first MB from net %d, want 0", rec.nets[0])
	}
}

// TestEDFPrefetchesBeyondDoubleBuffering: EDF layers deadline order on
// capacity-bounded prefetching, so a single network's fetches must run
// ahead of compute past the double-buffering depth of the baselines.
func TestEDFPrefetchesBeyondDoubleBuffering(t *testing.T) {
	cfg := testConfig()
	// Short fetches, long computes: an unbounded prefetcher finishes
	// all fetches while the first compute still runs.
	nets := []*compiler.CompiledNetwork{oneLayer("a", cfg, 5, 500, 8, 1)}
	edfRes, _ := run(t, cfg, nets, NewEDF(nil))
	fifoRes, _ := run(t, cfg, nets, NewFIFO())
	if edfRes.Makespan > fifoRes.Makespan {
		t.Errorf("EDF makespan %d exceeds FIFO's %d — prefetching regressed", edfRes.Makespan, fifoRes.Makespan)
	}
	// All 8 fetches fit in SRAM and each is far shorter than one CB, so
	// the memory engine must drain well before the last compute.
	if edfRes.MemBusy != 8*5 {
		t.Errorf("memory busy %d, want 40", edfRes.MemBusy)
	}
}

// TestEDFLateArrivalsRespectDeadlines: a late-arriving urgent request
// takes priority over queued loose-deadline work as soon as it lands.
func TestEDFLateArrivalsRespectDeadlines(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("slack", cfg, 20, 20, 8, 1),
		oneLayer("urgent", cfg, 20, 20, 2, 1),
	}
	rec := &traceOrder{}
	res, err := sim.Run(cfg, nets, NewEDF([]arch.Cycles{1 << 40, 500}),
		sim.Options{Tracer: rec, CheckInvariants: true, Arrivals: []arch.Cycles{0, 45}})
	if err != nil {
		t.Fatal(err)
	}
	// After cycle 45 every remaining issue must prefer net 1 until its
	// blocks are exhausted: net 1's two MBs appear before the tail of
	// net 0's.
	firstUrgent := -1
	for i, n := range rec.nets {
		if n == 1 {
			firstUrgent = i
			break
		}
	}
	if firstUrgent < 0 || firstUrgent > 4 {
		t.Fatalf("urgent net's first MB at position %d of %v", firstUrgent, rec.nets)
	}
	if res.NetFinish[1] >= res.NetFinish[0] {
		t.Errorf("urgent net finished at %d, after slack net's %d", res.NetFinish[1], res.NetFinish[0])
	}
}
