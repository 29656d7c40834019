package cluster

import (
	"reflect"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/serve"
)

// TestPredictETAStaticFallbacks: predictETA equals the static ETA
// exactly both when no predictor is attached (the legacy dispatcher —
// this is what keeps the pre-predictive paths bit-identical) and when
// the predictor exists but the chip has no routed history to simulate
// against.
func TestPredictETAStaticFallbacks(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 50, 9, 2.0, 2)
	r := Request{Index: 3, Class: s.ClassOf[3], Arrival: s.Arrivals[3], Service: s.EntryService(3)}
	v := &View{chips: 2, classes: len(s.Classes), freeAt: make([]arch.Cycles, 2)}
	v.freeAt[0] = r.Arrival + 500
	if got, want := v.predictETA(0, r), v.eta(0, r); got != want {
		t.Errorf("no predictor: predictETA %d != static ETA %d", got, want)
	}
	v.pred = newPredictor(cfg, s, 2)
	if got, want := v.predictETA(1, r), v.eta(1, r); got != want {
		t.Errorf("empty history: predictETA %d != static ETA %d", got, want)
	}
}

// TestPredictiveWinsPastSaturation pins the one regime of the routing
// grid (EXPERIMENTS.md) where the predictive policy beats least-work
// beyond the seed spread: admission on, the CNN/RNN mix, 2 chips at
// per-chip load 3. The static drain-then-serve estimate serially sums
// isolated service times, so it admits requests that then miss; the
// forward simulation sees the chip's real queue and sheds them
// instead. Goodput — requests finished on time over requests offered —
// must be at least 5 points above least-work's at every seed.
func TestPredictiveWinsPastSaturation(t *testing.T) {
	cfg := testConfig(t)
	classes := serve.DefaultClasses()
	gaps, err := serve.Gaps(cfg, classes, 3.0*2)
	if err != nil {
		t.Fatal(err)
	}
	goodput := func(s *serve.Stream, pol Policy) float64 {
		res, err := Serve(cfg, s, aimtSpec(), pol, Options{Chips: 2, Control: Control{Admission: true}})
		if err != nil {
			t.Fatal(err)
		}
		a := res.Agg
		return float64(a.Requests-a.Shed-a.Misses) / float64(a.Requests)
	}
	for _, seed := range []int64{7, 1009, 42} {
		// The gap needs the grid's full stream: the queue builds for the
		// whole run, and at 1000 requests the margin is 1–2 points.
		s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: 2000, MeanGap: gaps[0], Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lw, pr := goodput(s, leastWork{}), goodput(s, predictive{})
		if pr < lw+0.05 {
			t.Errorf("seed %d: predictive goodput %.1f%%, least-work %.1f%%; want at least 5 points more",
				seed, 100*pr, 100*lw)
		}
	}
}

// TestPredictiveDispatchDeterministic: the predictor is a pure
// function of the dispatch state, so two controlled dispatches over
// the same stream agree exactly.
func TestPredictiveDispatchDeterministic(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 150, 5, 3.0, 2)
	a, _, _, err := dispatch(s, predictive{}, 2, Control{}, newPredictor(cfg, s, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := dispatch(s, predictive{}, 2, Control{}, newPredictor(cfg, s, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("predictive dispatch is not deterministic")
	}
}

// TestPredictivePolicyServes runs the full Serve path under the
// predictive policy — which must attach the predictor implicitly,
// without any explicit Control setting — and checks every request is
// served and accounted.
func TestPredictivePolicyServes(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 120, 7, 2.0, 2)
	res, err := Serve(cfg, s, aimtSpec(), predictive{}, Options{Chips: 2, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "predictive" {
		t.Errorf("result policy %q, want predictive", res.Policy)
	}
	served := 0
	for _, cr := range res.ChipResults {
		if cr != nil {
			served += len(cr.NetFinish)
		}
	}
	if served != len(s.Nets) {
		t.Errorf("served %d of %d requests", served, len(s.Nets))
	}
	if res.ShedCount != 0 {
		t.Errorf("predictive routing shed %d requests with admission off", res.ShedCount)
	}
}

// TestPredictiveByName: the predictive policy resolves by name (the
// aimt-serve -route path) without joining the default comparison set.
func TestPredictiveByName(t *testing.T) {
	spec, err := ByName("predictive")
	if err != nil {
		t.Fatal(err)
	}
	if spec.New().Name() != "predictive" {
		t.Errorf("ByName(predictive) built %q", spec.New().Name())
	}
	for _, s := range Policies() {
		if s.Name == "predictive" {
			t.Error("predictive must not be in the default Policies() comparison set")
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted an unknown policy")
	}
}

// TestPredictorWindowSlides: the per-chip history is bounded by the
// predictWindow constant, oldest-out.
func TestPredictorWindowSlides(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 20, 3, 1.0, 1)
	p := newPredictor(cfg, s, 1)
	for i := 0; i < 20; i++ {
		p.record(0, i)
	}
	want := []int{12, 13, 14, 15, 16, 17, 18, 19}
	if !reflect.DeepEqual(p.recent[0], want) {
		t.Errorf("window holds %v, want %v", p.recent[0], want)
	}
}

// TestPredictorCarriesBacklog routes far more back-to-back requests to
// one chip than the predictor's window holds. Every request routed
// before the N-th is still unfinished when it arrives, so the N-th
// ETA can be no earlier than the time the machine needs to drain
// them: their total HBM or PE work, whichever is larger, after the
// first arrival. A window that forgot its older entries would plateau
// near predictWindow requests' worth of work instead.
func TestPredictorCarriesBacklog(t *testing.T) {
	cfg := testConfig(t)
	s, err := serve.NewStream(cfg, serve.DefaultClasses(), serve.StreamOptions{Requests: 40, MeanGap: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := newPredictor(cfg, s, 1)
	var mb, cb arch.Cycles
	for i := range s.Nets {
		r := Request{Index: i, Arrival: s.Arrivals[i], Service: s.EntryService(i)}
		eta := p.eta(0, r, r.Arrival+r.Service)
		if drain := s.Arrivals[0] + max(mb, cb); eta < drain {
			t.Fatalf("request %d: ETA %d below the drain time %d of the %d requests ahead of it", i, eta, drain, i)
		}
		p.record(0, i)
		st := s.Nets[i].Stats()
		mb, cb = mb+st.MBCycles, cb+st.CBCycles
	}
}
