package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"aimt/internal/arch"
	"aimt/internal/compiler"
)

// probe is a randomized scheduler that compares the incrementally
// maintained frontiers against the reference full scans at every
// decision point (in addition to the checker's per-event comparison),
// while exercising every path that moves candidacy: random MB issue
// order, random CB order, ahead-of-execution claims, and splits.
type probe struct {
	NopHooks
	t   *testing.T
	rng *rand.Rand

	// sq holds ahead-of-execution claims in order; a claimed layer
	// leaves ReadyCBs, so the probe must run its claims itself (the
	// same contract core.AIMT's selected queue follows).
	sq []CBRef
}

func (*probe) Name() string { return "frontier-probe" }

func (p *probe) check(v *View) {
	p.t.Helper()
	got, want := v.MBCandidates(nil), v.scanMBCandidates(nil)
	if !mbRefsEqual(got, want) {
		p.t.Fatalf("MBCandidates %v != scan %v", got, want)
	}
	if g, w := v.ReadyCBs(nil), v.scanReadyCBs(nil); !cbRefsEqual(g, w) {
		p.t.Fatalf("ReadyCBs %v != scan %v", g, w)
	}
	if g, w := v.SelectableCBs(nil), v.scanSelectableCBs(nil); !cbRefsEqual(g, w) {
		p.t.Fatalf("SelectableCBs %v != scan %v", g, w)
	}
	if g, w := v.AvailableCBCycles(), v.scanAvailableCBCycles(); g != w {
		p.t.Fatalf("AvailableCBCycles %d != scan %d", g, w)
	}
}

func (p *probe) PickMB(v *View) (MBRef, bool) {
	p.check(v)
	// Occasionally claim the first selectable compute block ahead of
	// execution, so cbSelected moves independently of execution.
	// (Claims must be made in iteration order per layer, so only the
	// first selectable entry of a layer is claimable.)
	if sel := v.SelectableCBs(nil); len(sel) > 0 && p.rng.Intn(3) == 0 {
		pick := sel[p.rng.Intn(len(sel))]
		if err := v.SelectCB(pick); err == nil {
			p.sq = append(p.sq, pick)
			p.check(v)
		}
	}
	var issuable []MBRef
	for _, m := range v.MBCandidates(nil) {
		if v.IsMBIssuable(m) {
			issuable = append(issuable, m)
		}
	}
	if len(issuable) == 0 {
		return MBRef{}, false
	}
	return issuable[p.rng.Intn(len(issuable))], true
}

func (p *probe) PickCB(v *View) (CBRef, bool) {
	p.check(v)
	if len(p.sq) > 0 {
		return p.sq[0], true
	}
	cbs := v.ReadyCBs(nil)
	if len(cbs) == 0 {
		return CBRef{}, false
	}
	return cbs[p.rng.Intn(len(cbs))], true
}

func (p *probe) OnMBDone(v *View, r MBRef) {
	p.check(v)
	if p.rng.Intn(4) == 0 {
		v.RequestSplit()
	}
}

func (p *probe) OnCBStart(v *View, r CBRef) {
	if len(p.sq) > 0 && p.sq[0] == r {
		p.sq = p.sq[1:]
	}
	p.check(v)
}

func (p *probe) OnCBDone(v *View, r CBRef) { p.check(v) }

func (p *probe) OnCBSplit(v *View, r CBRef, remaining arch.Cycles) {
	// The engine rolled the layer's selection counter back; drop the
	// matching claims.
	kept := p.sq[:0]
	for _, c := range p.sq {
		if c.Net != r.Net || c.Layer != r.Layer {
			kept = append(kept, c)
		}
	}
	p.sq = kept
	p.check(v)
}

// TestFrontierMatchesScanRandom drives random multi-net workloads with
// staggered arrivals and host transfers under the probing scheduler:
// the frontier-based candidate sets must equal the brute-force scans
// at every decision and every event (the run also has the invariant
// checker's own per-event comparison enabled).
func TestFrontierMatchesScanRandom(t *testing.T) {
	cfg := testConfig(t)
	cfg.HostBandwidth = 2_000_000_000 // 2 B/cycle: host transfers take real time
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var nets []*compiler.CompiledNetwork
		var arrivals []arch.Cycles
		for n := 0; n < 2+rng.Intn(3); n++ {
			var specs []layerSpec
			for l := 0; l < 1+rng.Intn(4); l++ {
				specs = append(specs, layerSpec{
					mb:     arch.Cycles(1 + rng.Intn(60)),
					cb:     arch.Cycles(1 + rng.Intn(60)),
					iters:  1 + rng.Intn(5),
					blocks: 1 + rng.Intn(3),
				})
			}
			cn := chainNet("n", cfg, specs...)
			cn.HostInBytes = arch.Bytes(rng.Intn(40))
			cn.HostOutBytes = arch.Bytes(rng.Intn(40))
			nets = append(nets, cn)
			arrivals = append(arrivals, arch.Cycles(rng.Intn(400)))
		}
		_, err := Run(cfg, nets, &probe{t: t, rng: rng},
			Options{CheckInvariants: true, Arrivals: arrivals})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// frontierSaboteur corrupts the maintained frontier state mid-run; the
// checker's frontier-vs-scan comparison must catch it at the next
// event.
type frontierSaboteur struct {
	NopHooks
	corrupt func(v *View)
}

func (*frontierSaboteur) Name() string { return "frontier-saboteur" }

func (s *frontierSaboteur) PickMB(v *View) (MBRef, bool) {
	for _, m := range v.MBCandidates(nil) {
		if v.IsMBIssuable(m) {
			return m, true
		}
	}
	return MBRef{}, false
}

func (s *frontierSaboteur) PickCB(v *View) (CBRef, bool) {
	cbs := v.ReadyCBs(nil)
	if len(cbs) == 0 {
		return CBRef{}, false
	}
	return cbs[0], true
}

func (s *frontierSaboteur) OnMBDone(v *View, r MBRef) { s.corrupt(v) }

func TestInvariantCatchesFrontierCorruption(t *testing.T) {
	cfg := testConfig(t)
	for _, tc := range []struct {
		name    string
		corrupt func(v *View)
	}{
		{"dropped-mb-frontier-entry", func(v *View) {
			s := v.nets[0]
			if len(s.mbFront) > 0 {
				s.mbFront = s.mbFront[:len(s.mbFront)-1]
			}
		}},
		{"phantom-cb-frontier-entry", func(v *View) {
			// Inject the still-locked last layer into the CB frontier.
			s := v.nets[0]
			last := len(s.cn.Layers) - 1
			for _, li := range s.cbFront {
				if li == last {
					return
				}
			}
			s.cbFront = frontAdd(s.cbFront, last)
		}},
		{"drifted-avl-counter", func(v *View) { v.availCB += 17 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cn := chainNet("n", cfg,
				layerSpec{mb: 10, cb: 20, iters: 3, blocks: 1},
				layerSpec{mb: 10, cb: 5, iters: 2, blocks: 1})
			_, err := Run(cfg, []*compiler.CompiledNetwork{cn},
				&frontierSaboteur{corrupt: tc.corrupt}, Options{CheckInvariants: true})
			if !errors.Is(err, ErrInvariant) {
				t.Fatalf("err = %v, want ErrInvariant (frontier diverged from scan)", err)
			}
		})
	}
}

// TestInvariantCatchesCBNetIndexCorruption corrupts the CB-frontier net
// index mid-run, once dropping a net that holds resident compute work
// and once listing a stale net (a late arrival with an empty CB
// frontier); the checker's rescan of the index must catch both.
func TestInvariantCatchesCBNetIndexCorruption(t *testing.T) {
	cfg := testConfig(t)
	for _, tc := range []struct {
		name    string
		corrupt func(v *View)
	}{
		{"dropped-net", func(v *View) {
			if len(v.cbNets) > 0 {
				v.cbNets = v.cbNets[:len(v.cbNets)-1]
			}
		}},
		{"stale-net", func(v *View) {
			if !v.nets[1].arrived && (len(v.cbNets) == 0 || v.cbNets[len(v.cbNets)-1] != 1) {
				v.cbNets = append(v.cbNets, 1)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := chainNet("a", cfg,
				layerSpec{mb: 10, cb: 20, iters: 3, blocks: 1},
				layerSpec{mb: 10, cb: 5, iters: 2, blocks: 1})
			b := chainNet("b", cfg, layerSpec{mb: 10, cb: 5, iters: 2, blocks: 1})
			_, err := Run(cfg, []*compiler.CompiledNetwork{a, b}, &frontierSaboteur{corrupt: tc.corrupt},
				Options{CheckInvariants: true, Arrivals: []arch.Cycles{0, 500}})
			if !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "net index") {
				t.Fatalf("err = %v, want ErrInvariant from the CB-frontier net index check", err)
			}
		})
	}
}

// TestRestoreRebuildsCBNetIndex corrupts the live index after a
// snapshot; Restore must rebuild it from the restored frontiers, so
// the checked replay matches an uninterrupted run exactly.
func TestRestoreRebuildsCBNetIndex(t *testing.T) {
	cfg, nets := snapshotWorkload(t)
	want, err := Run(cfg, nets, serial{}, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, nets, serial{}, Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepUntil(want.Makespan / 3); err != nil {
		t.Fatal(err)
	}
	if len(e.v.cbNets) == 0 {
		t.Fatal("probe point holds no compute candidates; nothing to rebuild")
	}
	snap := e.Snapshot(nil)
	e.v.cbNets = append(e.v.cbNets[:0], 1, 0, 7)
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay after restore diverged: makespan %d, want %d", got.Makespan, want.Makespan)
	}
}

// benchView hand-builds a mid-run View over nets deep chain networks:
// per net, the first prog layers are complete, the layer at prog is
// mid-flight, and everything beyond is still locked — the steady state
// of a deep-layer mix, where a full scan walks every layer to find a
// handful of candidates. The first resident nets hold unconsumed
// compute blocks at prog; the others still wait for its weights.
func benchView(b *testing.B, nets, layers, resident int) *View {
	b.Helper()
	cfg := testConfig(b)
	v := &View{cfg: cfg, total: cfg.WeightBlocks()}
	for n := 0; n < nets; n++ {
		specs := make([]layerSpec, layers)
		for l := range specs {
			specs[l] = layerSpec{mb: 10, cb: 20, iters: 4, blocks: 1}
		}
		s := newNetState(chainNet("n", cfg, specs...))
		s.hostInDone = true
		prog := layers / 2
		for li := 0; li < layers; li++ {
			iters := s.cn.Layers[li].Iters
			switch {
			case li < prog:
				s.mbIndeg[li], s.cbIndeg[li] = 0, 0
				s.mbIssued[li], s.mbDone[li] = iters, iters
				s.cbSelected[li], s.cbDone[li] = iters, iters
			case li == prog && n < resident:
				s.mbIndeg[li], s.cbIndeg[li] = 0, 0
				s.mbIssued[li], s.mbDone[li] = 3, 2
				s.cbSelected[li], s.cbDone[li] = 1, 0
			case li == prog:
				s.mbIndeg[li], s.cbIndeg[li] = 0, 0
				s.mbIssued[li] = 1
			}
			// Layers beyond prog keep their constructed in-degrees
			// (locked), except the one directly after prog, whose MB
			// chain the finished prefix would have unlocked.
			if li == prog+1 {
				s.mbIndeg[li] = 0
			}
		}
		v.nets = append(v.nets, s)
		v.activeAdd(n)
	}
	// Rebuild the frontiers and the AVL counter from the counters, the
	// way the engine's incremental maintenance would have left them.
	for ni, s := range v.nets {
		s.mbFront, s.cbFront = s.mbFront[:0], s.cbFront[:0]
		for li := range s.cn.Layers {
			if s.mbIndeg[li] == 0 && s.mbIssued[li] < s.cn.Layers[li].Iters {
				s.mbFront = frontAdd(s.mbFront, li)
			}
			if s.cbIndeg[li] == 0 && s.mbDone[li] > s.cbDone[li] {
				v.cbFrontAdd(ni, li)
			}
		}
	}
	v.availCB = v.scanAvailableCBCycles()
	return v
}

// BenchmarkCandidateScan measures one full scheduler-visible candidate
// derivation (MBCandidates + ReadyCBs + SelectableCBs +
// AvailableCBCycles) on a deep-layer mid-run state: the incremental
// frontiers against the reference full scan they replaced. The
// first-* and mb-from sub-benchmarks measure AI-MT's rotation-aware
// queries on a serve-sized active set — 7 shallow nets, one holding
// resident compute work — each against the materialize-then-pick
// path it replaced.
func BenchmarkCandidateScan(b *testing.B) {
	v := benchView(b, 8, 64, 8)
	if g, w := v.MBCandidates(nil), v.scanMBCandidates(nil); !mbRefsEqual(g, w) {
		b.Fatalf("frontier %v != scan %v", g, w)
	}
	var mbs, ord []MBRef
	var cbs []CBRef
	b.Run("frontier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mbs = v.MBCandidates(mbs[:0])
			cbs = v.ReadyCBs(cbs[:0])
			cbs = v.SelectableCBs(cbs[:0])
			_ = v.AvailableCBCycles()
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mbs = v.scanMBCandidates(mbs[:0])
			cbs = v.scanReadyCBs(cbs[:0])
			cbs = v.scanSelectableCBs(cbs[:0])
			_ = v.scanAvailableCBCycles()
		}
	})

	sv := benchView(b, 7, 6, 1)
	sv.nets[0].cbSelected[3] = 0 // nothing claimed: the block is ready too
	if len(sv.ReadyCBs(nil)) == 0 || len(sv.SelectableCBs(nil)) == 0 {
		b.Fatal("serve-sized view holds no ready or selectable compute block")
	}
	const from = 4 // a rotation pointer past the resident net, so picks wrap
	first := func(cbs []CBRef) CBRef {
		for _, c := range cbs {
			if c.Net >= from {
				return c
			}
		}
		return cbs[0]
	}
	b.Run("first-ready", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = sv.FirstReadyCB(from)
		}
	})
	b.Run("first-ready-materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cbs = sv.ReadyCBs(cbs[:0])
			_ = first(cbs)
		}
	})
	b.Run("first-selectable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = sv.FirstSelectableCB(from)
		}
	})
	b.Run("first-selectable-materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cbs = sv.SelectableCBs(cbs[:0])
			_ = first(cbs)
		}
	})
	b.Run("mb-from", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mbs = sv.MBCandidatesFrom(mbs[:0], from)
		}
	})
	b.Run("mb-from-materialized", func(b *testing.B) {
		// MBCandidates plus the four-pass rank the rotation used to do.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mbs = sv.MBCandidates(mbs[:0])
			ord = ord[:0]
			for pri := 0; pri <= 3; pri++ {
				for _, m := range mbs {
					r := 0
					if m.Net < from {
						r++
					}
					if !sv.nets[m.Net].hostInDone {
						r += 2
					}
					if r == pri {
						ord = append(ord, m)
					}
				}
			}
			mbs, ord = ord, mbs
		}
	})
}
