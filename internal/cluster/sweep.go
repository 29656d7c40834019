package cluster

import (
	"fmt"
	"io"

	"aimt/internal/arch"
	"aimt/internal/metrics"
	"aimt/internal/serve"
	"aimt/internal/sweep"
)

// Route is one cluster shape of a sweep: a routing policy over a chip
// count (<= 0 means 1).
type Route struct {
	Policy Spec
	Chips  int
}

// SweepOptions tune a load sweep.
type SweepOptions struct {
	// Options configures every run of the sweep. Its Chips field is
	// not read: each route names its own chip count.
	Options

	// Stream is the per-point stream shape; its MeanGap field is
	// ignored in favor of Gaps.
	Stream serve.StreamOptions

	// Gaps lists the mean inter-arrival times to sweep, typically
	// descending (load ascending); empty means defaultGapFactors as
	// per-chip offered loads on the first route's chips.
	Gaps []arch.Cycles

	// Routes lists the cluster shapes every scheduler runs under at
	// every point. Empty means one unrouted single-chip run per
	// scheduler: the stream runs on one engine as it is, with no
	// dispatcher.
	Routes []Route
}

// CurvePoint is one offered-load point of a sweep: the same request
// sequence at one inter-arrival scale, under every scheduler and
// route.
type CurvePoint struct {
	// MeanGap is the mean inter-arrival time at this point.
	MeanGap arch.Cycles

	// OfferedLoad is the stream's mean service estimate over MeanGap,
	// in single-chip capacities; a run's per-chip load divides it by
	// its chip count. Past ~1 per chip the chips are oversubscribed.
	OfferedLoad float64

	// Results holds one result per (scheduler, route), schedulers
	// outermost, each in the order given.
	Results []*Result
}

// defaultGapFactors are the per-chip offered loads walked when
// SweepOptions lists no gaps: from light traffic to past saturation.
var defaultGapFactors = []float64{0.2, 0.5, 0.8, 1.1, 1.5}

// Sweep runs every scheduler under every route on an identical request
// sequence at each gap (same seed; only the arrival gaps scale) and
// returns one CurvePoint per gap, in the order listed. An empty
// scheduler list means serve.StandardSchedulers.
//
// Every routed run is dispatched first, then every chip job of every
// run goes through one worker pool, then the runs are folded in grid
// order — so reports, counters, the ledger's front-door decisions and
// the trace store fill in the same order as running the cells one by
// one.
func Sweep(cfg arch.Config, classes []serve.Class, specs []serve.SchedulerSpec, opts SweepOptions) ([]CurvePoint, error) {
	if len(specs) == 0 {
		specs = serve.StandardSchedulers()
	}
	routes := opts.Routes
	if len(routes) == 0 {
		routes = []Route{{}}
	}
	gaps := opts.Gaps
	if len(gaps) == 0 {
		chips := float64(max(routes[0].Chips, 1))
		loads := make([]float64, len(defaultGapFactors))
		for i, f := range defaultGapFactors {
			loads[i] = f * chips
		}
		var err error
		if gaps, err = serve.Gaps(cfg, classes, loads...); err != nil {
			return nil, err
		}
	}

	points := make([]CurvePoint, len(gaps))
	runs := make([]*run, 0, len(gaps)*len(specs)*len(routes))
	var jobs []sweep.Job
	for gi, gap := range gaps {
		sopts := opts.Stream
		sopts.MeanGap = gap
		s, err := serve.NewStream(cfg, classes, sopts)
		if err != nil {
			return nil, err
		}
		points[gi] = CurvePoint{MeanGap: gap, OfferedLoad: s.OfferedLoad()}
		for _, spec := range specs {
			for _, rt := range routes {
				r := &run{s: s, spec: spec, chips: max(rt.Chips, 1)}
				if rt.Policy.New != nil {
					r.pol = rt.Policy.New()
				} else {
					r.chips = 1
				}
				if jobs, err = r.plan(cfg, &opts.Options, jobs); err != nil {
					return nil, fmt.Errorf("cluster: %s at gap %d: %w", rt.Policy.Name, gap, err)
				}
				runs = append(runs, r)
			}
		}
	}
	outs := sweep.Run(jobs, sweep.Options{Workers: opts.Workers})
	if err := sweep.FirstError(outs); err != nil {
		return nil, err
	}

	per := len(specs) * len(routes)
	for gi := range points {
		points[gi].Results = make([]*Result, per)
		for k := range points[gi].Results {
			points[gi].Results[k] = runs[gi*per+k].fold(outs, &opts.Options)
		}
	}
	opts.Trace.Publish(opts.Metrics)
	return points, nil
}

// PrintCurve renders a sweep as one table per offered-load point.
// Unrouted points list one row per scheduler under the point's
// offered load. Routed points are headed by the first result's chip
// count and per-chip load and list one row per policy (per
// scheduler/policy pair when the point mixes schedulers) with a load
// imbalance column. Points whose reports carry phase rows
// (transformer mixes) get per-phase p99/miss and tokens-per-Mcycle
// columns.
func PrintCurve(w io.Writer, points []CurvePoint) error {
	for _, pt := range points {
		phased, routed, mixed := false, false, false
		for _, r := range pt.Results {
			phased = phased || r.Agg.PerPhase != nil
			routed = routed || r.Policy != ""
			mixed = mixed || r.Scheduler != pt.Results[0].Scheduler
		}
		label := "scheduler"
		switch {
		case routed && mixed:
			label = "scheduler/policy"
		case routed:
			label = "policy"
		}
		cols := []string{label, "p50", "p99", "p99.9", "miss rate", "req/Mcyc", "PE util"}
		if phased {
			cols = []string{label, "p50", "p99", "miss rate",
				"prefill p99", "prefill miss", "decode p99", "decode miss", "tok/Mcyc", "PE util"}
		}
		if routed {
			cols = append(cols, "imbalance")
		}
		t := metrics.NewTable(cols...)
		for _, r := range pt.Results {
			name := r.Scheduler
			switch {
			case routed && mixed:
				name += "/" + r.Policy
			case routed:
				name = r.Policy
			}
			a := r.Agg
			row := []string{name, fmt.Sprint(a.P50), fmt.Sprint(a.P99), fmt.Sprint(a.P999),
				metrics.Pct(a.MissRate), metrics.F(a.Throughput), metrics.Pct(a.PEUtil)}
			if phased {
				var pre, dec serve.PhaseStats
				if len(a.PerPhase) == 2 {
					pre, dec = a.PerPhase[0], a.PerPhase[1]
				}
				row = []string{name, fmt.Sprint(a.P50), fmt.Sprint(a.P99), metrics.Pct(a.MissRate),
					fmt.Sprint(pre.P99), metrics.Pct(pre.MissRate),
					fmt.Sprint(dec.P99), metrics.Pct(dec.MissRate),
					metrics.F(a.TokensPerMcycle), metrics.Pct(a.PEUtil)}
			}
			if routed {
				row = append(row, metrics.F(r.Imbalance))
			}
			t.AddRow(row...)
		}
		var err error
		if routed {
			chips := pt.Results[0].Chips
			_, err = fmt.Fprintf(w, "chips %d, per-chip offered load %.2f (mean gap %d)\n%s\n",
				chips, pt.OfferedLoad/float64(chips), pt.MeanGap, t)
		} else {
			_, err = fmt.Fprintf(w, "offered load %.2f (mean gap %d)\n%s\n", pt.OfferedLoad, pt.MeanGap, t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
