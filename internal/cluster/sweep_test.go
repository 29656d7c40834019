package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/obs"
	"aimt/internal/serve"
)

// TestLoadCurveAcceptance is the serving acceptance sweep: >= 10,000
// requests of the default mixed CNN/RNN stream through FIFO, PREMA,
// AI-MT and EDF at a light and a saturated load point, unrouted.
// Memory stays bounded (reports hold histograms, never latency
// slices), every point reports tail quantiles and miss rates, and
// EDF's deadline-miss rate beats FIFO's at saturation.
func TestLoadCurveAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-request saturation sweep")
	}
	cfg := testConfig(t)
	gaps, err := serve.Gaps(cfg, serve.DefaultClasses(), 0.4, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Sweep(cfg, serve.DefaultClasses(), serve.StandardSchedulers(), SweepOptions{
		Stream: serve.StreamOptions{Requests: 10_000, Seed: 3},
		Gaps:   gaps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	byName := func(pt CurvePoint, name string) *serve.Report {
		for _, r := range pt.Results {
			if r.Scheduler == name {
				return r.Agg
			}
		}
		t.Fatalf("no %s report at load %.2f", name, pt.OfferedLoad)
		return nil
	}
	for _, pt := range points {
		if len(pt.Results) != 4 {
			t.Fatalf("load %.2f: %d results, want 4", pt.OfferedLoad, len(pt.Results))
		}
		for _, res := range pt.Results {
			r := res.Agg
			if res.Policy != "" || res.Assignment != nil || res.Chips != 1 {
				t.Errorf("load %.2f %s: unrouted run has policy %q, chips %d", pt.OfferedLoad, r.Scheduler, res.Policy, res.Chips)
			}
			if r.Latency.Count() != 10_000 {
				t.Errorf("load %.2f %s: recorded %d latencies, want 10000", pt.OfferedLoad, r.Scheduler, r.Latency.Count())
			}
			if r.P50 <= 0 || r.P999 < r.P99 || r.P99 < r.P50 {
				t.Errorf("load %.2f %s: bad quantiles p50=%d p99=%d p99.9=%d",
					pt.OfferedLoad, r.Scheduler, r.P50, r.P99, r.P999)
			}
		}
	}
	sat := points[1]
	fifo, edf := byName(sat, "FIFO"), byName(sat, "EDF")
	if fifo.MissRate <= 0 {
		t.Fatalf("saturation point is not saturated: FIFO miss rate %v", fifo.MissRate)
	}
	if edf.MissRate >= fifo.MissRate {
		t.Errorf("EDF miss rate %.3f does not beat FIFO's %.3f at saturation", edf.MissRate, fifo.MissRate)
	}
	var sb strings.Builder
	if err := PrintCurve(&sb, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "EDF") || !strings.Contains(sb.String(), "miss rate") ||
		strings.Contains(sb.String(), "imbalance") {
		t.Errorf("PrintCurve output missing expected columns:\n%s", sb.String())
	}
	t.Logf("saturation: FIFO miss %.3f p99 %d | EDF miss %.3f p99 %d",
		fifo.MissRate, fifo.P99, edf.MissRate, edf.P99)
}

// TestLoadCurveDefaults: with no explicit gaps, schedulers or routes
// the sweep walks defaultGapFactors unrouted with the standard
// scheduler set, and with routes the default loads are per chip.
func TestLoadCurveDefaults(t *testing.T) {
	cfg := testConfig(t)
	points, err := Sweep(cfg, serve.DefaultClasses(), nil, SweepOptions{
		Options: Options{CheckInvariants: true},
		Stream:  serve.StreamOptions{Requests: 50, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(defaultGapFactors) {
		t.Fatalf("got %d points, want %d", len(points), len(defaultGapFactors))
	}
	for i, pt := range points {
		if len(pt.Results) != len(serve.StandardSchedulers()) {
			t.Fatalf("point %d has %d results", i, len(pt.Results))
		}
		if i > 0 && pt.OfferedLoad <= points[i-1].OfferedLoad {
			t.Errorf("offered load not increasing: %v then %v", points[i-1].OfferedLoad, pt.OfferedLoad)
		}
	}

	routed, err := Sweep(cfg, serve.DefaultClasses(), []serve.SchedulerSpec{aimtSpec()}, SweepOptions{
		Stream: serve.StreamOptions{Requests: 50, Seed: 2},
		Routes: []Route{{Policy: Policies()[1], Chips: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range routed {
		// Same seed, twice the aggregate rate: each chip sees the
		// unrouted point's load.
		if pt.MeanGap >= points[i].MeanGap {
			t.Errorf("point %d: 2-chip gap %d not below the 1-chip gap %d", i, pt.MeanGap, points[i].MeanGap)
		}
	}
}

// TestLoadCurveShapes runs a small cluster sweep end to end and checks
// its dimensions, grid order and rendering.
func TestLoadCurveShapes(t *testing.T) {
	cfg := testConfig(t)
	var routes []Route
	for _, p := range Policies() {
		routes = append(routes, Route{Policy: p, Chips: 3})
	}
	fifo, err := serve.SpecByName("FIFO")
	if err != nil {
		t.Fatal(err)
	}
	specs := []serve.SchedulerSpec{aimtSpec(), fifo}
	points, err := Sweep(cfg, serve.DefaultClasses(), specs, SweepOptions{
		Stream: serve.StreamOptions{Requests: 40, Seed: 1},
		Gaps:   []arch.Cycles{4000, 1000},
		Routes: routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for _, pt := range points {
		if len(pt.Results) != len(specs)*len(routes) {
			t.Errorf("gap %d: %d results, want %d", pt.MeanGap, len(pt.Results), len(specs)*len(routes))
		}
		for k, r := range pt.Results {
			spec, route := specs[k/len(routes)], routes[k%len(routes)]
			if r.Scheduler != spec.Name || r.Policy != route.Policy.Name {
				t.Errorf("gap %d result %d: %s/%s, want %s/%s", pt.MeanGap, k, r.Scheduler, r.Policy, spec.Name, route.Policy.Name)
			}
			if r.Chips != 3 || len(r.PerChip) != 3 {
				t.Errorf("gap %d %s: chips %d, per-chip reports %d", pt.MeanGap, r.Policy, r.Chips, len(r.PerChip))
			}
		}
	}
	var buf bytes.Buffer
	if err := PrintCurve(&buf, points); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "scheduler/policy") || !strings.Contains(out, "FIFO/least-work") ||
		!strings.Contains(out, "chips 3, per-chip offered load") || !strings.Contains(out, "imbalance") {
		t.Errorf("PrintCurve output missing the routed labels:\n%s", out)
	}
	buf.Reset()
	if err := PrintChips(&buf, points[0].Results[0]); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("PrintChips produced no output")
	}
}

// TestSweepMatchesServe: every cell of a routed sweep, control plane
// and shared observers on, equals a cluster.Serve call over the same
// stream — the planner's batching of all runs into one pool changes
// no outcome — and the ledger holds the same decisions.
func TestSweepMatchesServe(t *testing.T) {
	cfg := testConfig(t)
	classes := serve.DefaultClasses()
	classes[0].Priority = 1
	gaps, err := serve.Gaps(cfg, classes, 1.0, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	var routes []Route
	for _, name := range []string{"least-work", "round-robin"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, Route{Policy: p, Chips: 2})
	}
	ctl := Control{Admission: true, Autoscale: true}
	sopts := serve.StreamOptions{Requests: 120, Seed: 5}
	sweepLed := obs.NewLedger(1 << 16)
	points, err := Sweep(cfg, classes, []serve.SchedulerSpec{aimtSpec()}, SweepOptions{
		Options: Options{Workers: 1, Ledger: sweepLed, Control: ctl},
		Stream:  sopts,
		Gaps:    gaps,
		Routes:  routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveLed := obs.NewLedger(1 << 16)
	for gi, pt := range points {
		sopts.MeanGap = gaps[gi]
		s, err := serve.NewStream(cfg, classes, sopts)
		if err != nil {
			t.Fatal(err)
		}
		for k, rt := range routes {
			want, err := Serve(cfg, s, aimtSpec(), rt.Policy.New(), Options{Chips: 2, Workers: 1, Ledger: serveLed, Control: ctl})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pt.Results[k], want) {
				t.Errorf("gap %d %s: sweep result differs from Serve", gaps[gi], rt.Policy.Name)
			}
		}
	}
	if sweepLed.CountKind(obs.KindShed) == 0 {
		t.Fatal("no shed decisions: the sweep does not exercise the control plane")
	}
	var a, b bytes.Buffer
	if err := sweepLed.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := serveLed.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("the sweep's ledger differs from one Serve call per cell in turn")
	}

	// On several workers the chip jobs of different runs interleave and
	// each run's front-door decisions reach the shared ledger from
	// whichever worker starts its first job; results and ledger totals
	// do not change.
	parLed := obs.NewLedger(1 << 16)
	par, err := Sweep(cfg, classes, []serve.SchedulerSpec{aimtSpec()}, SweepOptions{
		Options: Options{Workers: 4, Ledger: parLed, Control: ctl},
		Stream:  sopts,
		Gaps:    gaps,
		Routes:  routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, points) {
		t.Error("a 4-worker sweep differs from the serial sweep")
	}
	if !reflect.DeepEqual(parLed.Summary(), sweepLed.Summary()) {
		t.Errorf("4-worker ledger holds %d decisions, serial %d", parLed.Total(), sweepLed.Total())
	}
}
