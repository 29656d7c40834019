package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/nn"
)

// testConfig returns a small machine: 4 arrays of 4x4 PEs, 1 B/cycle
// HBM (so MB cycles equal bytes/1), 8-block weight SRAM, no host link.
func testConfig() arch.Config {
	return arch.Config{
		PEDim:        4,
		NumArrays:    4,
		FreqHz:       1_000_000_000,
		MemBandwidth: 1_000_000_000, // 1 B/cycle
		WeightSRAM:   8 * 16,        // 8 blocks of 16 B
		IOSRAM:       1 << 20,
		WeightBytes:  1,
		FillLatency:  2,
	}
}

// chainNet builds a linear compiled network with the given per-layer
// (MB cycles, CB cycles, iters, blocks).
type layerSpec struct {
	mb, cb arch.Cycles
	iters  int
	blocks int
}

func chainNet(name string, cfg arch.Config, specs ...layerSpec) *compiler.CompiledNetwork {
	cn := &compiler.CompiledNetwork{Name: name, Batch: 1}
	for i, s := range specs {
		l := compiler.CompiledLayer{
			Name:     name + string(rune('a'+i)),
			Type:     0,
			MBCycles: s.mb,
			CBCycles: s.cb,
			Iters:    s.iters,
			MBBlocks: s.blocks,
			MBBytes:  cfg.BlockBytes() * arch.Bytes(s.blocks),
		}
		if i > 0 {
			l.Deps = []int{i - 1}
			cn.Layers[i-1].Posts = append(cn.Layers[i-1].Posts, i)
		}
		cn.Layers = append(cn.Layers, l)
	}
	return cn
}

// serial is the simplest legal scheduler: issue the first issuable MB
// (FIFO order, unbounded prefetch), run the first ready CB.
type serial struct{ NopHooks }

func (serial) Name() string { return "serial" }

func (serial) PickMB(v *View) (MBRef, bool) {
	for _, m := range v.MBCandidates(nil) {
		if v.IsMBIssuable(m) {
			return m, true
		}
	}
	return MBRef{}, false
}

func (serial) PickCB(v *View) (CBRef, bool) {
	cbs := v.ReadyCBs(nil)
	if len(cbs) == 0 {
		return CBRef{}, false
	}
	return cbs[0], true
}

func TestSingleLayerTimeline(t *testing.T) {
	cfg := testConfig()
	// One layer, one sub-layer: MB 10 cycles, CB 20 cycles.
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 20, iters: 1, blocks: 1})
	res, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 30 {
		t.Errorf("makespan = %d, want 30 (serial MB then CB)", res.Makespan)
	}
	if res.MemBusy != 10 || res.PEBusy != 20 {
		t.Errorf("busy = %d/%d, want 10/20", res.MemBusy, res.PEBusy)
	}
	if res.MBCount != 1 || res.CBCount != 1 {
		t.Errorf("counts = %d/%d", res.MBCount, res.CBCount)
	}
}

func TestPipeliningOverlapsFetchAndCompute(t *testing.T) {
	cfg := testConfig()
	// Four sub-layers: MB 10, CB 10. With prefetching the steady state
	// overlaps: makespan = 10 (first MB) + 4*10 (CBs) = 50.
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 10, iters: 4, blocks: 1})
	res, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 50 {
		t.Errorf("makespan = %d, want 50", res.Makespan)
	}
}

func TestSRAMCapacityBoundsPrefetch(t *testing.T) {
	cfg := testConfig() // 8 blocks
	// 16 sub-layers of 1 block each, MB fast (1 cycle), CB slow (10).
	// Prefetch races ahead but can hold at most 8 blocks.
	cn := chainNet("n", cfg, layerSpec{mb: 1, cb: 10, iters: 16, blocks: 1})
	res, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SRAMPeakBlocks > 8 {
		t.Errorf("SRAM peak = %d blocks, capacity 8", res.SRAMPeakBlocks)
	}
	if res.SRAMPeakBlocks < 8 {
		t.Errorf("SRAM peak = %d blocks, prefetch should saturate capacity", res.SRAMPeakBlocks)
	}
}

func TestOversizedMBRejected(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 10, iters: 1, blocks: 9})
	if _, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{}); err == nil {
		t.Error("MB larger than the weight buffer accepted")
	}
}

func TestLayerDependencyGatesCB(t *testing.T) {
	cfg := testConfig()
	// Layer a: 1 sub-layer CB 50; layer b: CB 5. b's CB must not start
	// before a's finishes even though b's weights arrive early.
	cn := chainNet("n", cfg,
		layerSpec{mb: 5, cb: 50, iters: 1, blocks: 1},
		layerSpec{mb: 5, cb: 5, iters: 1, blocks: 1},
	)
	rec := &eventLog{}
	res, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	// a: MB 0-5, CB 5-55. b: MB 5-10 (prefetched), CB 55-60.
	if res.Makespan != 60 {
		t.Errorf("makespan = %d, want 60", res.Makespan)
	}
	b := rec.find("pe", 0, 1, 0)
	if b == nil || b.Start != 55 {
		t.Errorf("layer b CB = %+v, want start 55", b)
	}
}

func TestCrossNetworkIndependence(t *testing.T) {
	cfg := testConfig()
	// Two single-layer nets; the serial scheduler interleaves their
	// MBs, and both finish without waiting on each other.
	n1 := chainNet("x", cfg, layerSpec{mb: 10, cb: 30, iters: 1, blocks: 1})
	n2 := chainNet("y", cfg, layerSpec{mb: 10, cb: 30, iters: 1, blocks: 1})
	res, err := Run(cfg, []*compiler.CompiledNetwork{n1, n2}, serial{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// MBs at 0-10 and 10-20; CBs at 10-40 and 40-70.
	if res.Makespan != 70 {
		t.Errorf("makespan = %d, want 70", res.Makespan)
	}
	if res.NetFinish[0] != 40 || res.NetFinish[1] != 70 {
		t.Errorf("finishes = %v", res.NetFinish)
	}
}

func TestDiamondDependency(t *testing.T) {
	cfg := testConfig()
	// a -> {b, c} -> d: d waits for both branches.
	cn := &compiler.CompiledNetwork{Name: "d", Batch: 1}
	mk := func(deps []int) compiler.CompiledLayer {
		return compiler.CompiledLayer{
			Name: "l", MBCycles: 1, CBCycles: 10, Iters: 1, MBBlocks: 1,
			MBBytes: cfg.BlockBytes(), Deps: deps,
		}
	}
	cn.Layers = []compiler.CompiledLayer{mk(nil), mk([]int{0}), mk([]int{0}), mk([]int{1, 2})}
	for i, l := range cn.Layers {
		for _, d := range l.Deps {
			cn.Layers[d].Posts = append(cn.Layers[d].Posts, i)
		}
	}
	rec := &eventLog{}
	res, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	d := rec.find("pe", 0, 3, 0)
	bEnd := rec.find("pe", 0, 1, 0).End
	cEnd := rec.find("pe", 0, 2, 0).End
	join := bEnd
	if cEnd > join {
		join = cEnd
	}
	if d.Start < join {
		t.Errorf("d started at %d before both branches ended (%d, %d)", d.Start, bEnd, cEnd)
	}
	if res.Makespan != d.End {
		t.Errorf("makespan %d != last CB end %d", res.Makespan, d.End)
	}
}

func TestHostTransfersGateAndSerialize(t *testing.T) {
	cfg := testConfig()
	cfg.HostBandwidth = 1_000_000_000 // 1 B/cycle
	n1 := chainNet("x", cfg, layerSpec{mb: 1, cb: 10, iters: 1, blocks: 1})
	n1.HostInBytes = 100
	n1.HostOutBytes = 50
	n2 := chainNet("y", cfg, layerSpec{mb: 1, cb: 10, iters: 1, blocks: 1})
	n2.HostInBytes = 100
	rec := &eventLog{}
	res, err := Run(cfg, []*compiler.CompiledNetwork{n1, n2}, serial{}, Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Inputs serialize: net0 0-100, net1 100-200. net0 CB starts at
	// 100 (weights long resident), ends 110; its output transfer
	// queues behind net1's input on the single link, 200-250. net1 CB
	// 200-210.
	cb0 := rec.find("pe", 0, 0, 0)
	if cb0.Start != 100 {
		t.Errorf("net0 CB start = %d, want 100 (gated by host input)", cb0.Start)
	}
	cb1 := rec.find("pe", 1, 0, 0)
	if cb1.Start != 200 {
		t.Errorf("net1 CB start = %d, want 200", cb1.Start)
	}
	if res.NetFinish[0] != 250 {
		t.Errorf("net0 finish = %d, want 250 (output queues behind net1 input)", res.NetFinish[0])
	}
	if res.HostBusy != 250 {
		t.Errorf("host busy = %d, want 250", res.HostBusy)
	}
}

// splitter forces a split while the long CB runs, then behaves
// serially; it verifies halt/resume mechanics and the refill penalty.
type splitter struct {
	serial
	splitAt  arch.Cycles
	splitRun bool
	resumes  []arch.Cycles // CBCycles observed for layer-0 restarts
}

func (s *splitter) PickMB(v *View) (MBRef, bool) {
	if !s.splitRun && v.Now() >= s.splitAt {
		if cur, _, ok := v.ExecutingCB(); ok && cur.Layer == 0 {
			s.splitRun = v.RequestSplit()
			return MBRef{}, false
		}
	}
	return s.serial.PickMB(v)
}

func (s *splitter) PickCB(v *View) (CBRef, bool) {
	r, ok := s.serial.PickCB(v)
	if ok && r.Net == 0 && r.Layer == 0 {
		s.resumes = append(s.resumes, v.CBCycles(r))
	}
	return r, ok
}

func (s *splitter) OnCBSplit(v *View, r CBRef, remaining arch.Cycles) {}

func TestSplitAndResume(t *testing.T) {
	cfg := testConfig() // fill latency 2
	// Net A's long CB (10-110) is split at t=40, when net B's first
	// fetch completes and gives the scheduler a decision point.
	a := chainNet("a", cfg, layerSpec{mb: 10, cb: 100, iters: 1, blocks: 4})
	b := chainNet("b", cfg, layerSpec{mb: 30, cb: 5, iters: 2, blocks: 2})
	s := &splitter{splitAt: 40}
	rec := &eventLog{}
	res, err := Run(cfg, []*compiler.CompiledNetwork{a, b}, s, Options{Tracer: rec, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits != 1 {
		t.Fatalf("splits = %d, want 1", res.Splits)
	}
	// A's CB ran 10-40 (30 cycles), split, resumed with remaining 70
	// plus fill 2 => 40-112. B's CBs follow: 112-117, 117-122.
	if res.Makespan != 122 {
		t.Errorf("makespan = %d, want 122", res.Makespan)
	}
	// Total PE busy = 30 + 72 + 5 + 5.
	if res.PEBusy != 112 {
		t.Errorf("PE busy = %d, want 112 (refill penalty included)", res.PEBusy)
	}
	// The resumed pick must have seen remnant + fill.
	if len(s.resumes) != 2 || s.resumes[0] != 100 || s.resumes[1] != 72 {
		t.Errorf("resume cycles = %v, want [100 72]", s.resumes)
	}
	// The split interval is visible in the trace.
	first := rec.find("pe", 0, 0, 0)
	if first == nil || first.End-first.Start != 30 {
		t.Errorf("split interval = %+v, want 30 cycles", first)
	}
}

func TestSplitOnFreshCBIgnored(t *testing.T) {
	cfg := testConfig()
	v := &View{cfg: cfg}
	if v.RequestSplit() {
		t.Error("split granted with idle PE")
	}
}

// stubborn never schedules anything.
type stubborn struct{ NopHooks }

func (stubborn) Name() string               { return "stubborn" }
func (stubborn) PickMB(*View) (MBRef, bool) { return MBRef{}, false }
func (stubborn) PickCB(*View) (CBRef, bool) { return CBRef{}, false }

func TestDeadlockDetected(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 10, iters: 1, blocks: 1})
	_, err := Run(cfg, []*compiler.CompiledNetwork{cn}, stubborn{}, Options{})
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

// liar returns non-issuable MBs.
type liar struct{ serial }

func (liar) PickMB(v *View) (MBRef, bool) { return MBRef{Net: 0, Layer: 0, Iter: 99}, true }

func TestBadSchedulerRejected(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 10, iters: 1, blocks: 1})
	if _, err := Run(cfg, []*compiler.CompiledNetwork{cn}, liar{}, Options{}); err == nil {
		t.Error("non-issuable MB accepted")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 1000, iters: 5, blocks: 1})
	_, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{MaxCycles: 50})
	if !errors.Is(err, ErrTimeLimit) {
		t.Errorf("err = %v, want ErrTimeLimit", err)
	}
}

func TestArrivals(t *testing.T) {
	cfg := testConfig()
	n1 := chainNet("early", cfg, layerSpec{mb: 10, cb: 10, iters: 1, blocks: 1})
	n2 := chainNet("late", cfg, layerSpec{mb: 10, cb: 10, iters: 1, blocks: 1})
	rec := &eventLog{}
	res, err := Run(cfg, []*compiler.CompiledNetwork{n1, n2}, serial{},
		Options{Tracer: rec, Arrivals: []arch.Cycles{0, 100}})
	if err != nil {
		t.Fatal(err)
	}
	// The late network must be invisible before cycle 100.
	for _, e := range rec.events {
		if e.net == 1 && e.Start < 100 {
			t.Errorf("late network active at %d: %+v", e.Start, e)
		}
	}
	if res.NetArrive[1] != 100 {
		t.Errorf("NetArrive[1] = %d, want 100", res.NetArrive[1])
	}
	// early: MB 0-10, CB 10-20, finish 20. late: MB 100-110,
	// CB 110-120.
	if res.NetFinish[0] != 20 || res.NetFinish[1] != 120 {
		t.Errorf("finishes = %v, want [20 120]", res.NetFinish)
	}
	if res.Makespan != 120 {
		t.Errorf("makespan = %d, want 120", res.Makespan)
	}
}

func TestArrivalWhileBusy(t *testing.T) {
	cfg := testConfig()
	// The late net arrives mid-way through the early net's CB; the
	// engine must pick it up at the next event without a dedicated
	// wake-up (its arrival is an event).
	n1 := chainNet("early", cfg, layerSpec{mb: 10, cb: 100, iters: 1, blocks: 1})
	n2 := chainNet("late", cfg, layerSpec{mb: 10, cb: 10, iters: 1, blocks: 1})
	rec := &eventLog{}
	_, err := Run(cfg, []*compiler.CompiledNetwork{n1, n2}, serial{},
		Options{Tracer: rec, Arrivals: []arch.Cycles{0, 50}})
	if err != nil {
		t.Fatal(err)
	}
	mb := rec.find("mem", 1, 0, 0)
	if mb == nil || mb.Start != 50 {
		t.Errorf("late MB = %+v, want start 50 (fetched during early CB)", mb)
	}
}

func TestSchedulerLatency(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 5, iters: 3, blocks: 1})
	hw, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Run(cfg, []*compiler.CompiledNetwork{cn}, serial{}, Options{SchedulerLatency: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Memory-bound chain: three issues each pay 7 extra cycles.
	if want := hw.Makespan + 3*7; sw.Makespan != want {
		t.Errorf("software-scheduler makespan = %d, want %d", sw.Makespan, want)
	}
	// Decision latency is not transfer time.
	if sw.MemBusy != hw.MemBusy {
		t.Errorf("MemBusy changed: %d vs %d", sw.MemBusy, hw.MemBusy)
	}
}

func TestRunRejectsEmptyAndInvalid(t *testing.T) {
	cfg := testConfig()
	if _, err := Run(cfg, nil, serial{}, Options{}); err == nil {
		t.Error("empty workload accepted")
	}
	bad := &compiler.CompiledNetwork{Name: "bad", Batch: 1}
	if _, err := Run(cfg, []*compiler.CompiledNetwork{bad}, serial{}, Options{}); err == nil {
		t.Error("invalid network accepted")
	}
}

// eventLog records tracer events for assertions.
type eventLog struct{ events []traceEvent }

type traceEvent struct {
	engine          string
	net, layer, itr int
	Start, End      arch.Cycles
}

func (l *eventLog) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	l.events = append(l.events, traceEvent{engine, net, layer, iter, start, end})
}

func (l *eventLog) find(engine string, net, layer, iter int) *traceEvent {
	for i := range l.events {
		e := &l.events[i]
		if e.engine == engine && e.net == net && e.layer == layer && e.itr == iter {
			return e
		}
	}
	return nil
}

// TestPropertyMachineInvariants runs random workloads under the serial
// scheduler and checks the universal invariants: the makespan respects
// the lower bound max(sum MB, sum CB); every CB starts after its MB
// ends; busy cycles equal the block totals; no engine interval
// overlaps another on the same engine.
func TestPropertyMachineInvariants(t *testing.T) {
	cfg := testConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var nets []*compiler.CompiledNetwork
		var mbTot, cbTot arch.Cycles
		for n := 0; n < 1+rng.Intn(3); n++ {
			var specs []layerSpec
			for l := 0; l < 1+rng.Intn(4); l++ {
				s := layerSpec{
					mb:     arch.Cycles(1 + rng.Intn(20)),
					cb:     arch.Cycles(1 + rng.Intn(30)),
					iters:  1 + rng.Intn(5),
					blocks: 1 + rng.Intn(3),
				}
				specs = append(specs, s)
				mbTot += s.mb * arch.Cycles(s.iters)
				cbTot += s.cb * arch.Cycles(s.iters)
			}
			nets = append(nets, chainNet("n", cfg, specs...))
		}
		rec := &eventLog{}
		res, err := Run(cfg, nets, serial{}, Options{Tracer: rec, CheckInvariants: true})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		lower := mbTot
		if cbTot > lower {
			lower = cbTot
		}
		if res.Makespan < lower {
			t.Logf("seed %d: makespan %d below bound %d", seed, res.Makespan, lower)
			return false
		}
		if res.MemBusy != mbTot || res.PEBusy != cbTot {
			t.Logf("seed %d: busy %d/%d, want %d/%d", seed, res.MemBusy, res.PEBusy, mbTot, cbTot)
			return false
		}
		// Per-sub-layer MB-before-CB ordering and per-engine
		// non-overlap.
		type key struct{ n, l, i int }
		mbEnd := map[key]arch.Cycles{}
		lastEnd := map[string]arch.Cycles{}
		for _, e := range rec.events {
			if e.Start < lastEnd[e.engine] {
				t.Logf("seed %d: %s interval overlap at %d", seed, e.engine, e.Start)
				return false
			}
			lastEnd[e.engine] = e.End
			if e.engine == "mem" {
				mbEnd[key{e.net, e.layer, e.itr}] = e.End
			}
			if e.engine == "pe" {
				end, ok := mbEnd[key{e.net, e.layer, e.itr}]
				if !ok || e.Start < end {
					t.Logf("seed %d: CB %v started before its MB finished", seed, e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestViewAccessors(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg,
		layerSpec{mb: 10, cb: 20, iters: 2, blocks: 1},
		layerSpec{mb: 10, cb: 5, iters: 1, blocks: 2},
	)
	v := &View{cfg: cfg, total: cfg.WeightBlocks(), nets: []*netState{newNetState(cn)}}
	v.nets[0].hostInDone = true
	// The engine maintains the active list, the incremental
	// outstanding/remaining counters and the candidate frontiers; a
	// hand-built View must seed them the same way.
	v.activeAdd(0)
	v.mbRemaining = 3

	if v.NumNets() != 1 || v.numLayers(0) != 2 {
		t.Fatalf("dims wrong")
	}
	mbs := v.MBCandidates(nil)
	if len(mbs) != 1 || mbs[0].Layer != 0 {
		t.Fatalf("MB candidates = %v", mbs)
	}
	if !v.IsMBIssuable(mbs[0]) {
		t.Fatal("first MB not issuable")
	}
	if v.IsMBIssuable(MBRef{Net: 0, Layer: 1, Iter: 0}) {
		t.Fatal("locked layer issuable")
	}
	if got := v.AvailableCBCycles(); got != 0 {
		t.Fatalf("available CB cycles = %d before any fetch", got)
	}
	// Simulate a completed fetch and the host-input unlock, adjusting
	// the engine-maintained counters and frontiers the way issueMB,
	// completeMB and finishHostIn would.
	v.nets[0].rows[0].mbIssued = 1
	v.nets[0].rows[0].mbDone = 1
	v.outstanding++
	v.mbRemaining--
	v.nets[0].rows[0].cbIndeg = 0
	v.unlockCB(0, 0)
	if got := v.AvailableCBCycles(); got != 20 {
		t.Fatalf("available CB cycles = %d, want 20", got)
	}
	ready := v.ReadyCBs(nil)
	if len(ready) != 1 || ready[0].Layer != 0 {
		t.Fatalf("ready = %v", ready)
	}
	sel := v.SelectableCBs(nil)
	if len(sel) != 1 {
		t.Fatalf("selectable = %v", sel)
	}
	if err := v.SelectCB(sel[0]); err != nil {
		t.Fatal(err)
	}
	if err := v.SelectCB(sel[0]); err == nil {
		t.Fatal("double select accepted")
	}
	if got := v.OutstandingMBs(); got != 1 {
		t.Fatalf("outstanding = %d", got)
	}
	if !v.hasMBWork() {
		t.Fatal("work remains but hasMBWork is false")
	}
}

// checkInitState checks that every instance's hot rows, the View
// accessors that read them, and its initial dependency counts and MB
// frontier agree field for field with its compiled table, and that
// instances of one table share its hot rows. The tables
// must carry host input, so no root CB chain is unlocked yet.
func checkInitState(t *testing.T, e *Engine, nets []*compiler.CompiledNetwork) {
	t.Helper()
	v := e.v
	for ni, cn := range nets {
		s := v.nets[ni]
		if got := len(s.hot); got != len(cn.Layers) {
			t.Fatalf("net %d (%s): %d hot rows for %d layers", ni, cn.Name, got, len(cn.Layers))
		}
		var front []int
		for li := range cn.Layers {
			l := &cn.Layers[li]
			want := layerHot{
				mbCycles: l.MBCycles, cbCycles: l.CBCycles,
				iters: l.Iters, mbBlocks: l.MBBlocks,
				memIntensive: l.MemoryIntensive(),
			}
			if got := s.hot[li]; got != want {
				t.Errorf("net %d %s layer %d (%s): hot row %+v, want %+v", ni, cn.Name, li, l.Name, got, want)
			}
			mb, cb := v.BlockCycles(ni, li)
			r := MBRef{Net: ni, Layer: li}
			if mb != l.MBCycles || cb != l.CBCycles || v.MBCycles(r) != l.MBCycles ||
				v.MBBlocks(r) != l.MBBlocks || v.LayerIters(ni, li) != l.Iters ||
				v.MemoryIntensive(ni, li) != l.MemoryIntensive() {
				t.Errorf("net %d %s layer %d (%s): View accessors disagree with the compiled table", ni, cn.Name, li, l.Name)
			}
			cbIn := len(l.Deps)
			if cbIn == 0 {
				cbIn = 1
			}
			if s.rows[li].mbIndeg != len(l.Deps) || s.rows[li].cbIndeg != cbIn {
				t.Errorf("net %d %s layer %d: indegrees MB %d CB %d, want %d and %d",
					ni, cn.Name, li, s.rows[li].mbIndeg, s.rows[li].cbIndeg, len(l.Deps), cbIn)
			}
			if len(l.Deps) == 0 && l.Iters > 0 {
				front = append(front, li)
			}
		}
		if !slices.Equal(s.mbFront, front) {
			t.Errorf("net %d %s: initial MB frontier %v, want %v", ni, cn.Name, s.mbFront, front)
		}
	}
	// Instances of one table read one row set.
	first := map[*compiler.CompiledNetwork]*layerHot{}
	for ni, cn := range nets {
		row := &v.nets[ni].hot[0]
		if f, ok := first[cn]; !ok {
			first[cn] = row
		} else if f != row {
			t.Fatalf("net %d (%s) has its own hot rows; want the table's shared rows", ni, cn.Name)
		}
	}
}

// TestHotRowsMatchCompiledTable checks each instance's init state —
// hot rows, View accessors, indegrees and root MB frontier — against
// its compiled table: every zoo network at batch 1 and 4 plus the
// transformer prefill and decode tables, with the first table
// repeated; a stream-like run where many instances share one table
// (and therefore one row set); and a run over many distinct tables,
// each of which gets its own recorded template.
func TestHotRowsMatchCompiledTable(t *testing.T) {
	cfg := arch.PaperConfig()
	srcs := []*nn.Network{nn.GPT2Prefill(128), nn.GPT2Decode(128)}
	for _, name := range []string{"RN34", "RN50", "VGG16", "MN", "GNMT"} {
		srcs = append(srcs, nn.Zoo()[name])
	}
	compile := func(t *testing.T, src *nn.Network, batch int) *compiler.CompiledNetwork {
		t.Helper()
		cn, err := compiler.Compile(src, cfg, batch)
		if err != nil {
			t.Fatalf("compile %s at batch %d: %v", src.Name, batch, err)
		}
		return cn
	}
	engine := func(t *testing.T, nets []*compiler.CompiledNetwork) *Engine {
		t.Helper()
		e, err := NewEngine(cfg, nets, serial{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("zoo-batch%d", batch), func(t *testing.T) {
			var nets []*compiler.CompiledNetwork
			for _, src := range srcs {
				nets = append(nets, compile(t, src, batch))
			}
			nets = append(nets, nets[0])
			checkInitState(t, engine(t, nets), nets)
		})
	}
	t.Run("shared-table", func(t *testing.T) {
		mn, gnmt := compile(t, nn.Zoo()["MN"], 1), compile(t, nn.Zoo()["GNMT"], 1)
		var nets []*compiler.CompiledNetwork
		for i := 0; i < 200; i++ {
			nets = append(nets, mn)
			if i%3 == 0 {
				nets = append(nets, gnmt)
			}
		}
		checkInitState(t, engine(t, nets), nets)
	})
	t.Run("many-distinct-tables", func(t *testing.T) {
		// Distinct tables that differ in every row, so an instance
		// reading another table's rows fails.
		const distinct = 38
		base := compile(t, nn.Zoo()["MN"], 1)
		var nets []*compiler.CompiledNetwork
		for i := 0; i < distinct; i++ {
			cn := &compiler.CompiledNetwork{
				Name: base.Name, Batch: base.Batch, Layers: slices.Clone(base.Layers),
				HostInBytes: base.HostInBytes, HostOutBytes: base.HostOutBytes,
			}
			for li := range cn.Layers {
				cn.Layers[li].MBCycles += arch.Cycles(i)
				cn.Layers[li].CBCycles += arch.Cycles(2 * i)
			}
			nets = append(nets, cn)
		}
		// Repeat the first, a middle and the last table.
		nets = append(nets, nets[0], nets[distinct/2], nets[distinct-1], nets[distinct-1])
		e := engine(t, nets)
		checkInitState(t, e, nets)
		if n := len(e.tables); n != distinct {
			t.Errorf("engine recorded %d tables, want one per distinct table (%d)", n, distinct)
		}
	})
}

// TestWarmEngineInitAllocFree re-initializes a pooled-style engine
// over a workload of many distinct tables, some shared by several
// instances: once warm, the table map, init templates, arena and
// checker reuse their storage, so init allocates nothing.
func TestWarmEngineInitAllocFree(t *testing.T) {
	cfg := testConfig()
	var nets []*compiler.CompiledNetwork
	for i := 0; i < 36; i++ {
		nets = append(nets, chainNet("n", cfg,
			layerSpec{mb: arch.Cycles(10 + i), cb: 20, iters: 3, blocks: 1},
			layerSpec{mb: 10, cb: arch.Cycles(5 + i), iters: 2, blocks: 1}))
	}
	for i := 0; i < 50; i++ {
		nets = append(nets, nets[i%3])
	}
	e := new(Engine)
	run := func() {
		if err := e.init(cfg, nets, serial{}, Options{CheckInvariants: true}); err != nil {
			t.Fatal(err)
		}
		e.release()
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Errorf("warm engine init allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEnginePoolSurvivesCollections checks that Run's engine pool keeps
// an idle engine across garbage collections, so the next Run reuses its
// slabs instead of building a new engine.
func TestEnginePoolSurvivesCollections(t *testing.T) {
	e := getEngine()
	putEngine(e)
	runtime.GC()
	runtime.GC()
	got := getEngine()
	defer putEngine(got)
	if got != e {
		t.Error("the engine pool dropped its idle engine at a garbage collection")
	}
}
