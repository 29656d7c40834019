package cluster

import (
	"testing"

	"aimt/internal/arch"
	"aimt/internal/obs"
	"aimt/internal/serve"
)

// prioStream builds a two-band stream (cnn premium at priority 1, rnn
// batch at priority 0) at the given per-chip offered load.
func prioStream(t *testing.T, cfg arch.Config, requests int, seed int64, load float64, chips int) *serve.Stream {
	t.Helper()
	classes := serve.DefaultClasses()
	classes[0].Priority = 1
	gaps, err := serve.Gaps(cfg, classes, load*float64(chips))
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: requests, MeanGap: gaps[0], Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAdmissionShedsOnlyLowestClass: at sustained saturation the
// admission check drops requests, every drop is in the lowest priority
// band, and conservation (routed + shed == offered) holds.
func TestAdmissionShedsOnlyLowestClass(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 300, 9, 4.0, 2)
	assign, shed, st, err := dispatch(s, leastWork{}, 2, Control{Admission: true}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for i := range assign {
		if shed[i] {
			if assign[i] != -1 {
				t.Errorf("request %d shed but assigned to chip %d", i, assign[i])
			}
			if p := s.ClassPriority[s.ClassOf[i]]; p != 0 {
				t.Errorf("request %d of priority %d shed; only the lowest band may shed", i, p)
			}
			continue
		}
		if assign[i] < 0 || assign[i] >= 2 {
			t.Errorf("request %d on invalid chip %d", i, assign[i])
		}
		routed++
	}
	if routed+st.shedCount != len(s.Nets) {
		t.Errorf("routed %d + shed %d != offered %d", routed, st.shedCount, len(s.Nets))
	}
	if st.shedCount == 0 {
		t.Error("no sheds at 4x saturation")
	}
}

// TestAutoscalerHysteresis: sustained overload grows the active set
// (logged for the ledger) and light load never leaves the one-chip
// floor.
func TestAutoscalerHysteresis(t *testing.T) {
	cfg := testConfig(t)
	hot := prioStream(t, cfg, 300, 9, 4.0, 4)
	led := obs.NewLedger(0)
	var notes obs.Log
	notes.Reset(led, 0)
	_, _, st, err := dispatch(hot, leastWork{}, 4, Control{Autoscale: true}, nil, &notes, nil)
	if err != nil {
		t.Fatal(err)
	}
	led.Fold(&notes)
	if st.scaleUps == 0 {
		t.Error("no scale-ups under sustained 4x overload")
	}
	if st.active < 1 || st.active > 4 {
		t.Errorf("active chips %d out of [1,4]", st.active)
	}
	if got := led.CountKind(obs.KindScaleUp); got != int64(st.scaleUps) {
		t.Errorf("noted scale-ups %d != stats %d", got, st.scaleUps)
	}
	if got := led.CountKind(obs.KindScaleDown); got != int64(st.scaleDowns) {
		t.Errorf("noted scale-downs %d != stats %d", got, st.scaleDowns)
	}

	light := prioStream(t, cfg, 300, 9, 0.1, 4)
	_, _, lst, err := dispatch(light, leastWork{}, 4, Control{Autoscale: true}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lst.scaleUps != 0 || lst.active != 1 {
		t.Errorf("light load scaled: %d ups, %d active, want 0 and 1", lst.scaleUps, lst.active)
	}
}

// TestControlledServeConservation runs the full controlled serve path
// and checks the end-to-end accounting: no admitted request is lost,
// shed requests never reach a chip's completion set, the aggregate
// report and the ledger agree with the dispatch stats.
func TestControlledServeConservation(t *testing.T) {
	cfg := testConfig(t)
	led := obs.NewLedger(0)
	s := prioStream(t, cfg, 240, 11, 4.0, 2)
	res, err := Serve(cfg, s, aimtSpec(), leastWork{}, Options{
		Chips:           2,
		CheckInvariants: true,
		Ledger:          led,
		Control:         Control{Admission: true, Autoscale: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedCount == 0 {
		t.Fatal("no sheds at 4x saturation")
	}
	if res.Agg.Shed != res.ShedCount {
		t.Errorf("aggregate shed %d != dispatch shed %d", res.Agg.Shed, res.ShedCount)
	}
	if got := int(res.Agg.Latency.Count()) + res.Agg.Shed; got != len(s.Nets) {
		t.Errorf("served %d + shed %d != offered %d", res.Agg.Latency.Count(), res.Agg.Shed, len(s.Nets))
	}
	admitted := 0
	for c, cr := range res.ChipResults {
		if cr == nil {
			continue
		}
		admitted += len(cr.NetFinish)
		for li, fin := range cr.NetFinish {
			if fin <= 0 {
				t.Errorf("chip %d local request %d never finished", c, li)
			}
		}
	}
	if admitted+res.ShedCount != len(s.Nets) {
		t.Errorf("chip completions %d + shed %d != offered %d", admitted, res.ShedCount, len(s.Nets))
	}
	if got := led.CountKind(obs.KindShed); got != int64(res.ShedCount) {
		t.Errorf("ledger sheds %d != result %d", got, res.ShedCount)
	}
	if got := led.CountKind(obs.KindScaleUp); got != int64(res.ScaleUps) {
		t.Errorf("ledger scale-ups %d != result %d", got, res.ScaleUps)
	}
	var offered int
	for _, cs := range res.Agg.PerClass {
		offered += cs.Requests
		if cs.Shed > 0 && cs.Class != "rnn" {
			t.Errorf("class %s shed %d requests; only the lowest band may shed", cs.Class, cs.Shed)
		}
	}
	if offered != len(s.Nets) {
		t.Errorf("per-class requests sum to %d, want %d", offered, len(s.Nets))
	}
}
