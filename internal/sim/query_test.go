package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/core"
	"aimt/internal/nn"
	"aimt/internal/serve"
	"aimt/internal/sim"
	"aimt/internal/workload"
)

// queryProbe wraps a scheduler and, at every engine callback, checks
// the rotation-aware View queries against their references built from
// the materialized candidate lists: FirstReadyCB and FirstSelectableCB
// against the first ReadyCBs / SelectableCBs entry at or after from
// (else the first entry), and MBCandidatesFrom against MBCandidates
// ranked by rotationRank.
type queryProbe struct {
	inner sim.Scheduler
	t     *testing.T

	checks int
	froms  []int
	mbs    []sim.MBRef
	want   []sim.MBRef
	got    []sim.MBRef
	ready  []sim.CBRef
	sel    []sim.CBRef
}

func (p *queryProbe) Name() string { return p.inner.Name() }

func (p *queryProbe) PickMB(v *sim.View) (sim.MBRef, bool) {
	p.check(v)
	return p.inner.PickMB(v)
}

func (p *queryProbe) PickCB(v *sim.View) (sim.CBRef, bool) {
	p.check(v)
	return p.inner.PickCB(v)
}

func (p *queryProbe) OnMBDone(v *sim.View, r sim.MBRef) {
	p.check(v)
	p.inner.OnMBDone(v, r)
}

func (p *queryProbe) OnCBStart(v *sim.View, r sim.CBRef) {
	p.check(v)
	p.inner.OnCBStart(v, r)
}

func (p *queryProbe) OnCBDone(v *sim.View, r sim.CBRef) {
	p.check(v)
	p.inner.OnCBDone(v, r)
}

func (p *queryProbe) OnCBSplit(v *sim.View, r sim.CBRef, remaining arch.Cycles) {
	p.check(v)
	p.inner.OnCBSplit(v, r, remaining)
}

// rotationRank is the ranking AI-MT's candidate rotation used before
// the View answered it in place: nets whose host input is done first,
// each group starting at the round-robin pointer from and wrapping,
// candidates otherwise in (net, layer) order. Kept here as the
// reference for View.MBCandidatesFrom.
func rotationRank(v *sim.View, out, mbs []sim.MBRef, from int) []sim.MBRef {
	rank := func(m sim.MBRef) int {
		r := 0
		if m.Net < from {
			r++
		}
		if !v.HostInputDone(m.Net) {
			r += 2
		}
		return r
	}
	for pri := 0; pri <= 3; pri++ {
		for _, m := range mbs {
			if rank(m) == pri {
				out = append(out, m)
			}
		}
	}
	return out
}

// firstFrom is the reference for the First*CB queries.
func firstFrom(cbs []sim.CBRef, from int) (sim.CBRef, bool) {
	for _, c := range cbs {
		if c.Net >= from {
			return c, true
		}
	}
	if len(cbs) == 0 {
		return sim.CBRef{}, false
	}
	return cbs[0], true
}

func (p *queryProbe) check(v *sim.View) {
	p.t.Helper()
	p.checks++
	n := v.NumNets()
	p.froms = append(p.froms[:0], 0, n-1, n, n+3)
	for i, a := range v.ActiveNets() {
		if i == 4 {
			break
		}
		p.froms = append(p.froms, a, a+1)
	}
	p.mbs = v.MBCandidates(p.mbs[:0])
	p.ready = v.ReadyCBs(p.ready[:0])
	p.sel = v.SelectableCBs(p.sel[:0])
	for _, from := range p.froms {
		p.want = rotationRank(v, p.want[:0], p.mbs, from)
		p.got = v.MBCandidatesFrom(p.got[:0], from)
		if len(p.got) != len(p.want) {
			p.t.Fatalf("cycle %d from %d: MBCandidatesFrom %v, want %v", v.Now(), from, p.got, p.want)
		}
		for i := range p.got {
			if p.got[i] != p.want[i] {
				p.t.Fatalf("cycle %d from %d: MBCandidatesFrom %v, want %v", v.Now(), from, p.got, p.want)
			}
		}
		g, gok := v.FirstReadyCB(from)
		w, wok := firstFrom(p.ready, from)
		if g != w || gok != wok {
			p.t.Fatalf("cycle %d from %d: FirstReadyCB = %v,%v, want %v,%v (ready %v)", v.Now(), from, g, gok, w, wok, p.ready)
		}
		g, gok = v.FirstSelectableCB(from)
		w, wok = firstFrom(p.sel, from)
		if g != w || gok != wok {
			p.t.Fatalf("cycle %d from %d: FirstSelectableCB = %v,%v, want %v,%v (selectable %v)", v.Now(), from, g, gok, w, wok, p.sel)
		}
	}
}

// TestRotationQueriesMatchReference drives AI-MT (all mechanisms, so
// merges, evictions and splits all move candidacy) over randomized zoo
// mixes with staggered arrivals and over a transformer serving stream
// with late arrivals and chained decode phases, and checks the
// rotation-aware queries against their references at every engine
// callback, with the invariant checker (which also rescans the
// CB-frontier net index) on.
func TestRotationQueriesMatchReference(t *testing.T) {
	cfg := arch.PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	zoo := []string{"RN34", "RN50", "MN", "GNMT", "VGG16"}
	compiled := map[string][]*compiler.CompiledNetwork{}
	for _, name := range zoo {
		for _, batch := range []int{1, 4} {
			cn, err := compiler.Compile(nn.Zoo()[name], cfg, batch)
			if err != nil {
				t.Fatal(err)
			}
			compiled[name] = append(compiled[name], cn)
		}
	}
	splits := 0
	run := func(t *testing.T, nets []*compiler.CompiledNetwork, opts sim.Options) {
		t.Helper()
		p := &queryProbe{inner: core.New(cfg, core.All()), t: t}
		opts.CheckInvariants = true
		res, err := sim.Run(cfg, nets, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.checks == 0 {
			t.Fatal("probe never ran")
		}
		splits += res.Splits
	}

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("zoo-mix-%d", i), func(t *testing.T) {
			var nets []*compiler.CompiledNetwork
			var arrivals []arch.Cycles
			batch := rng.Intn(2)
			for k := 0; k < 2+rng.Intn(4); k++ {
				nets = append(nets, compiled[zoo[rng.Intn(len(zoo))]][batch])
				arrivals = append(arrivals, arch.Cycles(rng.Intn(200_000)))
			}
			run(t, nets, sim.Options{Arrivals: arrivals})
		})
	}
	t.Run("split-mix", func(t *testing.T) {
		// The paper mix whose capacity pressure makes AI-MT split
		// compute blocks, all arriving at once.
		m, err := workload.Build(cfg, workload.Spec{Name: "split", Compute: []string{"RN34", "RN50", "MN"}, Memory: []string{"VGG16"}},
			workload.BuildOptions{Batch: 4})
		if err != nil {
			t.Fatal(err)
		}
		run(t, m.Nets, sim.Options{})
	})
	t.Run("transformer-stream", func(t *testing.T) {
		classes := serve.TransformerClasses()
		gaps, err := serve.Gaps(cfg, classes, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: 60, MeanGap: gaps[0], Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		run(t, s.Nets, sim.Options{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter})
	})

	if splits == 0 {
		t.Error("no run split a compute block; the split path went unchecked")
	}
}
