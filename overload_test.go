package aimt

import (
	"reflect"
	"testing"

	"aimt/internal/cluster"
	"aimt/internal/serve"
)

// overloadStream builds the two-band overload mix at the given offered
// load in full-cluster capacities (the overloadcurve pattern), with an
// optional uniform-priority variant for differential runs.
func overloadStream(t *testing.T, cfg Config, classes []ServeClass, requests int, seed int64, load float64, chips int) *serve.Stream {
	t.Helper()
	gaps, err := ServeGaps(cfg, classes, load*float64(chips))
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewStream(cfg, classes, ServeStreamOptions{Requests: requests, MeanGap: gaps[0], Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOverloadDegradation pins the graceful-degradation claim behind
// the overloadcurve golden: as offered load climbs from comfortable to
// 5x saturation, the premium band's SLA miss rate stays flat (it is
// never shed and preempts batch work on chip) while the batch band is
// shed in monotonically growing volume.
func TestOverloadDegradation(t *testing.T) {
	pts, err := overloadCurveData(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(overloadLoads) {
		t.Fatalf("got %d points, want %d", len(pts), len(overloadLoads))
	}
	prevShed := -1
	baseMiss := -1.0
	for _, p := range pts {
		var premium, batch *serve.ClassStats
		for i := range p.Res.Agg.PerClass {
			cs := &p.Res.Agg.PerClass[i]
			switch cs.Class {
			case "cnn":
				premium = cs
			case "rnn":
				batch = cs
			}
		}
		if premium == nil || batch == nil {
			t.Fatalf("load %.1f: missing class rows: %+v", p.Load, p.Res.Agg.PerClass)
		}
		if premium.Shed != 0 {
			t.Errorf("load %.1f: premium band shed %d requests; admission must never shed the top band", p.Load, premium.Shed)
		}
		if baseMiss < 0 {
			baseMiss = premium.MissRate
		}
		// Flat through 5x: no worse than the light-load baseline plus a
		// hair of tolerance.
		if premium.MissRate > baseMiss+0.02 {
			t.Errorf("load %.1f: premium miss rate %.3f degraded from baseline %.3f", p.Load, premium.MissRate, baseMiss)
		}
		if batch.Shed < prevShed {
			t.Errorf("load %.1f: batch shed %d fell below the previous load point's %d", p.Load, batch.Shed, prevShed)
		}
		prevShed = batch.Shed
	}
	last := pts[len(pts)-1]
	if last.Res.ShedCount == 0 {
		t.Error("no sheds at 5x saturation — admission control did nothing")
	}
	if last.Res.ScaleUps == 0 {
		t.Error("no scale-ups at 5x saturation — autoscaler did nothing")
	}
}

// TestAdmissionProperties is the admission-control invariant battery:
// for every scheduler x routing policy x priority mix, the controlled
// cluster serve path conserves requests exactly — no admitted request
// is shed after admission, shed requests never appear in any chip's
// completion multiset, and admitted + shed == offered.
func TestAdmissionProperties(t *testing.T) {
	cfg := PaperConfig()
	uniform := DefaultServingClasses()
	tiered := DefaultServingClasses()
	tiered[0].Priority = 1
	mixes := []struct {
		name    string
		classes []ServeClass
	}{
		{"uniform", uniform},
		{"two-tier", tiered},
	}
	schedulers := []SchedulerSpec{serveSpec(t, "FIFO"), serveSpec(t, "AI-MT+Prio")}
	for _, mix := range mixes {
		s := overloadStream(t, cfg, mix.classes, 200, 17, 3.0, 2)
		minPrio := s.ClassPriority[0]
		for _, p := range s.ClassPriority[1:] {
			if p < minPrio {
				minPrio = p
			}
		}
		for _, spec := range schedulers {
			for _, pspec := range ClusterPolicies() {
				res, err := cluster.Serve(cfg, s, spec, pspec.New(), ClusterOptions{
					Chips:   2,
					Control: ClusterControl{Admission: true, Autoscale: true},
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", mix.name, spec.Name, pspec.Name, err)
				}
				name := mix.name + "/" + spec.Name + "/" + pspec.Name
				offered := len(s.Nets)
				if len(res.Assignment) != offered || len(res.Shed) != offered {
					t.Fatalf("%s: assignment %d / shed %d, want %d", name, len(res.Assignment), len(res.Shed), offered)
				}
				perChip := make([]int, res.Chips)
				shedCount := 0
				for i, c := range res.Assignment {
					if res.Shed[i] != (c == -1) {
						t.Fatalf("%s: request %d shed=%v but chip %d", name, i, res.Shed[i], c)
					}
					if res.Shed[i] {
						shedCount++
						if p := s.ClassPriority[s.ClassOf[i]]; p != minPrio {
							t.Errorf("%s: request %d of priority %d shed; only the lowest band may shed", name, i, p)
						}
						continue
					}
					if c < 0 || c >= res.Chips {
						t.Fatalf("%s: request %d on invalid chip %d", name, i, c)
					}
					perChip[c]++
				}
				if shedCount != res.ShedCount {
					t.Errorf("%s: shed mask counts %d, result says %d", name, shedCount, res.ShedCount)
				}
				// Shed requests never reach a chip's completion multiset:
				// each chip completed exactly the requests routed to it.
				admitted := 0
				for c, cr := range res.ChipResults {
					n := 0
					if cr != nil {
						n = len(cr.NetFinish)
						for li, fin := range cr.NetFinish {
							if fin <= 0 {
								t.Errorf("%s: chip %d local request %d never finished", name, c, li)
							}
						}
					}
					if n != perChip[c] {
						t.Errorf("%s: chip %d completed %d requests, routed %d", name, c, n, perChip[c])
					}
					admitted += n
				}
				if admitted+res.ShedCount != offered {
					t.Errorf("%s: admitted %d + shed %d != offered %d", name, admitted, res.ShedCount, offered)
				}
				if got := int(res.Agg.Latency.Count()) + res.Agg.Shed; got != offered {
					t.Errorf("%s: report served %d + shed %d != offered %d", name, res.Agg.Latency.Count(), res.Agg.Shed, offered)
				}
				var classSum int
				for _, cs := range res.Agg.PerClass {
					classSum += cs.Requests
				}
				if classSum != offered {
					t.Errorf("%s: per-class requests sum to %d, want %d", name, classSum, offered)
				}
			}
		}
	}
}

// TestControlPlaneOffDifferential extends the one-chip anchor to the
// control plane: with admission off, priorities uniform, and an
// autoscaler with no chip to add, the controlled serve path must be
// bit-identical to the uncontrolled one — same raw chip results, same
// assignment, same aggregate report.
func TestControlPlaneOffDifferential(t *testing.T) {
	cfg := PaperConfig()
	classes := DefaultServingClasses() // uniform zero priorities
	stream := overloadStream(t, cfg, classes, 150, 13, 2.0, 2)

	// One chip, uniform priorities: the preemptive spec must collapse
	// to plain AI-MT exactly, matching the single-engine serve path
	// like the TestClusterN1BitIdentical anchor.
	ref, err := Run(cfg, stream.Nets, NewAIMT(cfg, AllMechanisms()), RunOptions{Arrivals: stream.Arrivals})
	if err != nil {
		t.Fatal(err)
	}
	for _, pspec := range ClusterPolicies() {
		cres, err := cluster.Serve(cfg, stream, serveSpec(t, "AI-MT+Prio"), pspec.New(), ClusterOptions{Chips: 1})
		if err != nil {
			t.Fatalf("%s: %v", pspec.Name, err)
		}
		if !reflect.DeepEqual(cres.ChipResults[0], ref) {
			t.Errorf("%s: uniform-priority preemptive spec diverged from plain AI-MT on one chip", pspec.Name)
		}
	}

	// Control plane present but neutralized (admission off, the
	// autoscaler on a one-chip cluster, which starts at its one-chip
	// floor with nothing to grow into) must match the control-plane-off
	// run field for field.
	for _, pspec := range ClusterPolicies() {
		off, err := cluster.Serve(cfg, stream, serveSpec(t, "AI-MT+Prio"), pspec.New(), ClusterOptions{Chips: 1})
		if err != nil {
			t.Fatalf("%s off: %v", pspec.Name, err)
		}
		pin, err := cluster.Serve(cfg, stream, serveSpec(t, "AI-MT+Prio"), pspec.New(), ClusterOptions{
			Chips:   1,
			Control: ClusterControl{Autoscale: true},
		})
		if err != nil {
			t.Fatalf("%s pinned: %v", pspec.Name, err)
		}
		if !reflect.DeepEqual(pin.Assignment, off.Assignment) {
			t.Errorf("%s: pinned control plane routed differently", pspec.Name)
		}
		if !reflect.DeepEqual(pin.ChipResults, off.ChipResults) {
			t.Errorf("%s: pinned control plane changed a chip's schedule", pspec.Name)
		}
		if !reflect.DeepEqual(pin.Agg, off.Agg) {
			t.Errorf("%s: pinned control plane changed the aggregate report", pspec.Name)
		}
		if pin.ShedCount != 0 || pin.ScaleUps != 0 || pin.ScaleDowns != 0 {
			t.Errorf("%s: neutralized control plane acted: %d shed, %d ups, %d downs",
				pspec.Name, pin.ShedCount, pin.ScaleUps, pin.ScaleDowns)
		}
		if pin.ActiveChips != 1 {
			t.Errorf("%s: pinned active chips %d, want 1", pspec.Name, pin.ActiveChips)
		}
	}
}
