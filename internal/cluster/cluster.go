// Package cluster models a multi-chip AI-MT deployment: N independent
// chip engines — each a full instance of the single-accelerator
// machine model (own HBM channel, PE complex, weight SRAM, host link
// and scheduler) — behind a request dispatcher with pluggable routing
// policies.
//
// The dispatcher is a front door, not an oracle: it routes each
// request at its arrival using only arrival times, class service
// estimates and its own previous routing decisions, exactly the
// information a production load balancer has. Once the assignment is
// fixed, every chip's schedule is simulated by the unmodified
// single-chip engine over the chip's sub-stream; chips share nothing,
// so the per-chip simulations fan out over the sweep worker pool.
//
// A one-chip cluster is, by construction, the single-engine serve
// path: every policy routes all requests to chip 0, the sub-stream is
// the stream, and the chip simulation is the same sim.Run call —
// enforced bit-for-bit by the differential tests.
package cluster

import (
	"fmt"
	"io"
	"strconv"

	"aimt/internal/arch"
	"aimt/internal/metrics"
	"aimt/internal/obs"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
	"aimt/internal/sweep"
)

// Options tune one cluster serving run.
type Options struct {
	// Chips is the number of chip engines; <= 0 means 1.
	Chips int

	// Workers caps the per-chip simulation parallelism; <= 0 means
	// GOMAXPROCS.
	Workers int

	// CheckInvariants turns the machine-model invariant checker on for
	// every chip's simulation.
	CheckInvariants bool

	// Metrics, when non-nil, receives live engine series from every
	// chip simulation plus per-chip and imbalance series published
	// when the run completes. Counters aggregate across runs sharing
	// the registry; gauges are last-writer-wins.
	Metrics *obs.Registry

	// Ledger, when non-nil, records every chip scheduler's decisions
	// (interleaved across chips; entries carry chip-local network
	// indices) plus the control plane's shed and scale decisions.
	Ledger *obs.Ledger

	// Control configures the overload control plane (admission
	// shedding, elastic autoscaling). The zero value disables it.
	Control Control

	// Trace, when non-nil, collects attributed per-request spans for
	// the whole cluster run: each chip simulation gets an
	// rtrace.Collector, the collectors are merged back into stream
	// coordinates, and the spans (chip choice, predicted ETA and shed
	// verdict included) land in Result.Spans and the store. Nil
	// attaches no tracer.
	Trace *rtrace.Store
}

// Result is one policy's cluster serving outcome.
type Result struct {
	// Policy and Scheduler label the routing policy and the per-chip
	// scheduler.
	Policy    string
	Scheduler string

	// Chips is the cluster size.
	Chips int

	// Assignment maps each request index to its chip.
	Assignment []int

	// PerChip holds one report per chip over that chip's sub-stream;
	// chips that received no requests get zero-valued reports.
	PerChip []*serve.Report

	// ChipResults holds the raw per-chip simulation results (request
	// indices are chip-local; see Assignment), nil for empty chips.
	ChipResults []*sim.Result

	// Agg is the aggregate report over every request of the stream:
	// latency quantiles and miss rates across all chips, throughput
	// over the cluster makespan, and engine utilizations averaged over
	// the chips.
	Agg *serve.Report

	// Imbalance is the PE-load imbalance across chips: the busiest
	// chip's share of PE work over the mean share, minus one
	// (metrics.Imbalance; 0 = perfectly balanced).
	Imbalance float64

	// Shed marks requests dropped by admission control (Assignment -1);
	// nil when admission, autoscaling and the predictor are all off,
	// which keeps the control-plane series off /metrics. ShedCount
	// totals them.
	Shed      []bool
	ShedCount int

	// ScaleUps and ScaleDowns count the elastic autoscaler's active-set
	// changes during dispatch; ActiveChips is the active set size when
	// dispatch finished (== Chips with the control plane off).
	ScaleUps, ScaleDowns int
	ActiveChips          int

	// Spans holds the attributed per-request traces when Options.Trace
	// was set (request-granular, stream request ids); nil otherwise.
	Spans []rtrace.RequestSpan
}

// Dispatch routes every request of the stream to a chip under the
// policy, in arrival order, and returns the entry-to-chip assignment.
// The dispatcher's backlog estimates advance with each routed entry's
// service estimate. Routing is request-granular: a decode entry
// inherits its predecessor's chip without consulting the policy — its
// KV cache lives there — but still advances that chip's backlog by the
// decode service estimate. Dispatch runs with the control plane off
// and no predictor, so every estimate is the static one.
func Dispatch(s *serve.Stream, pol Policy, chips int) ([]int, error) {
	assign, _, _, err := dispatch(s, pol, chips, Control{}, nil, nil, nil)
	return assign, err
}

// Serve routes the stream across the cluster under the policy, runs
// every chip's sub-stream on its own engine (one scheduler instance
// per chip, built by spec), and merges per-chip and aggregate reports.
func Serve(cfg arch.Config, s *serve.Stream, spec serve.SchedulerSpec, pol Policy, opts Options) (*Result, error) {
	res, _, err := serveChips(cfg, s, spec, pol, opts)
	return res, err
}

// serveChips is Serve that also returns each chip's occupancy log in
// chip-local instance coordinates (nil for chips that served nothing,
// and all nil unless opts.Trace is set), for exports that render the
// chips' engine timelines. The logs are not kept on Result: a load
// sweep retains every Result, and the logs are O(events).
func serveChips(cfg arch.Config, s *serve.Stream, spec serve.SchedulerSpec, pol Policy, opts Options) (*Result, []*rtrace.Collector, error) {
	chips := opts.Chips
	if chips <= 0 {
		chips = 1
	}
	var pred *predictor
	if pol.Name() == "predictive" {
		// The predictive policy is meaningless without the predictor;
		// selecting it is the one switch that attaches it.
		pred = newPredictor(cfg, s, chips)
	}
	var etas []arch.Cycles
	if opts.Trace != nil {
		etas = make([]arch.Cycles, len(s.Nets))
	}
	assign, shed, st, err := dispatch(s, pol, chips, opts.Control, pred, opts.Ledger, etas)
	if err != nil {
		return nil, nil, err
	}

	perChip := make([][]int, chips)
	for i, c := range assign {
		if c < 0 {
			continue // shed at the front door, never reached a chip
		}
		perChip[c] = append(perChip[c], i)
	}

	subs := make([]*serve.Stream, chips)
	cols := make([]*rtrace.Collector, chips)
	var jobs []sweep.Job
	var jobChip []int
	for c := 0; c < chips; c++ {
		if len(perChip[c]) == 0 {
			continue
		}
		sub, err := s.SubStream(fmt.Sprintf("%s-chip%d", s.Name, c), perChip[c])
		if err != nil {
			return nil, nil, err
		}
		subs[c] = sub
		var netClasses []string
		if opts.Metrics != nil {
			netClasses = sub.NetClasses()
		}
		// The tracer is assigned only when there is a collector, so an
		// untraced chip never gets a non-nil Tracer wrapping a nil one.
		var tracer sim.Tracer
		if opts.Trace != nil {
			cols[c] = rtrace.NewCollector(len(sub.Nets))
			tracer = cols[c]
		}
		jobs = append(jobs, sweep.Job{
			Mix:       sub.Name,
			Scheduler: spec.Name,
			Cfg:       cfg,
			Nets:      sub.Nets,
			New:       func() sim.Scheduler { return spec.New(cfg, sub) },
			Opts: sim.Options{
				Arrivals:        sub.Arrivals,
				ChainAfter:      sub.ChainAfter,
				CheckInvariants: opts.CheckInvariants,
				Metrics:         opts.Metrics,
				Ledger:          opts.Ledger,
				NetClasses:      netClasses,
				Tracer:          tracer,
			},
		})
		jobChip = append(jobChip, c)
	}
	outs := sweep.Run(jobs, sweep.Options{Workers: opts.Workers})
	if err := sweep.FirstError(outs); err != nil {
		return nil, nil, err
	}

	res := &Result{
		Policy:      pol.Name(),
		Scheduler:   spec.Name,
		Chips:       chips,
		Assignment:  assign,
		PerChip:     make([]*serve.Report, chips),
		ChipResults: make([]*sim.Result, chips),
		Shed:        shed,
		ShedCount:   st.shedCount,
		ScaleUps:    st.scaleUps,
		ScaleDowns:  st.scaleDowns,
		ActiveChips: st.active,
	}

	// Merge the chip results into one stream-indexed result so the
	// aggregate report is built by the same fold as the single-chip
	// path. The merged engine-busy totals are sums over chips; the
	// cluster makespan is the latest chip makespan.
	merged := &sim.Result{
		Scheduler: spec.Name,
		NetNames:  make([]string, len(s.Nets)),
		NetArrive: append([]arch.Cycles(nil), s.Arrivals...),
		NetFinish: make([]arch.Cycles, len(s.Nets)),
	}
	for ji, o := range outs {
		c := jobChip[ji]
		res.ChipResults[c] = o.Res
		rep := serve.BuildReport(subs[c], o.Res)
		rep.Scheduler = spec.Name
		res.PerChip[c] = rep
		if o.Res.Makespan > merged.Makespan {
			merged.Makespan = o.Res.Makespan
		}
		merged.MemBusy += o.Res.MemBusy
		merged.PEBusy += o.Res.PEBusy
		merged.HostBusy += o.Res.HostBusy
		merged.MBCount += o.Res.MBCount
		merged.CBCount += o.Res.CBCount
		merged.Splits += o.Res.Splits
		for li, gi := range perChip[c] {
			merged.NetFinish[gi] = o.Res.NetFinish[li]
			// The chip result's arrival is the effective one (a decode
			// phase arrives when its predecessor finishes); for unchained
			// entries it equals the stream arrival, so this copy is an
			// identity on single-phase streams.
			merged.NetArrive[gi] = o.Res.NetArrive[li]
			merged.NetNames[gi] = o.Res.NetNames[li]
		}
	}
	for c := 0; c < chips; c++ {
		if res.PerChip[c] == nil {
			res.PerChip[c] = &serve.Report{Scheduler: spec.Name}
		}
	}

	if opts.Trace != nil {
		// Merge the per-chip collectors into stream coordinates and
		// attribute every request against the merged result; shed
		// requests keep their failed admission prediction as the ETA.
		gcol := rtrace.NewCollector(len(s.Nets))
		for c, col := range cols {
			if col != nil {
				gcol.Merge(col, perChip[c])
			}
		}
		in := serve.TraceInput(s, merged, fmt.Sprintf("%s/%s", spec.Name, pol.Name()))
		in.Chip = assign
		in.ETA = etas
		in.Shed = shed
		res.Spans = rtrace.Build(in, gcol)
		opts.Trace.AddRun(res.Spans)
		opts.Trace.Publish(opts.Metrics)
	}

	agg := serve.BuildReportShed(s, merged, shed)
	agg.Scheduler = spec.Name
	if merged.Makespan > 0 {
		// Aggregate utilization is total busy work over chips x cluster
		// makespan, so an idle chip drags the average down. With one
		// chip this reduces to the single-engine busy fraction.
		agg.PEUtil = float64(merged.PEBusy) / (float64(chips) * float64(merged.Makespan))
		agg.MemUtil = float64(merged.MemBusy) / (float64(chips) * float64(merged.Makespan))
	}
	res.Agg = agg

	utils := make([]float64, chips)
	for c := 0; c < chips; c++ {
		if r := res.ChipResults[c]; r != nil && merged.Makespan > 0 {
			utils[c] = float64(r.PEBusy) / float64(merged.Makespan)
		}
	}
	res.Imbalance = metrics.Imbalance(utils)
	res.publish(opts.Metrics, utils)
	return res, cols, nil
}

// publish folds the cluster outcome into an observability registry:
// routed-request and SLA-miss counters plus imbalance per policy, and
// per-chip request, PE-utilization and p99 gauges. A nil registry is
// a no-op.
func (r *Result) publish(reg *obs.Registry, utils []float64) {
	if reg == nil {
		return
	}
	pl := func(name string) string { return obs.Label(name, "policy", r.Policy) }
	reg.Counter(pl("aimt_cluster_requests_total")).Add(int64(len(r.Assignment)))
	reg.Counter(pl("aimt_cluster_sla_misses_total")).Add(int64(r.Agg.Misses))
	reg.Gauge(pl("aimt_cluster_imbalance")).Set(r.Imbalance)
	if r.Agg.PerPhase != nil && r.Chips > 0 {
		// The transformer serving headline: generated tokens per million
		// cycles, normalized per chip.
		reg.Gauge(pl("aimt_cluster_tokens_per_mcycle_per_chip")).Set(r.Agg.TokensPerMcycle / float64(r.Chips))
	}
	if r.Shed != nil {
		reg.Counter(pl("aimt_cluster_shed_total")).Add(int64(r.ShedCount))
		reg.Counter(pl("aimt_cluster_scale_ups_total")).Add(int64(r.ScaleUps))
		reg.Counter(pl("aimt_cluster_scale_downs_total")).Add(int64(r.ScaleDowns))
		reg.Gauge(pl("aimt_cluster_active_chips")).Set(float64(r.ActiveChips))
	}
	for c, rep := range r.PerChip {
		ch := func(name string) string { return obs.Label(name, "chip", strconv.Itoa(c)) }
		reg.Gauge(ch("aimt_cluster_chip_requests")).Set(float64(rep.Requests))
		reg.Gauge(ch("aimt_cluster_chip_p99_cycles")).Set(float64(rep.P99))
		if c < len(utils) {
			reg.Gauge(ch("aimt_cluster_chip_pe_util")).Set(utils[c])
		}
	}
}

// CurveOptions tune a cluster load sweep.
type CurveOptions struct {
	// Options configures every cluster run of the sweep; see Options.
	Options

	// Stream is the per-point stream shape; its MeanGap field is
	// ignored in favor of Gaps.
	Stream serve.StreamOptions

	// Gaps lists the mean inter-arrival times to sweep; empty means
	// serve.DefaultGapFactors interpreted as per-chip offered loads
	// (the cluster absorbs chips x the single-chip rate at the same
	// factor).
	Gaps []arch.Cycles
}

// CurvePoint is one offered-load point of a cluster load sweep: the
// same request sequence routed and simulated under every policy.
type CurvePoint struct {
	// MeanGap is the mean inter-arrival time at this point.
	MeanGap arch.Cycles

	// ChipLoad is the per-chip offered load: the stream's aggregate
	// demand divided by the chip count. Past ~1 the whole cluster is
	// oversubscribed.
	ChipLoad float64

	// Results holds one cluster result per routing policy, in policy
	// order.
	Results []*Result
}

// LoadCurve sweeps offered load against the cluster: at each gap the
// identical request sequence (same seed) is routed under every policy
// and simulated, so points and policies are directly comparable.
func LoadCurve(cfg arch.Config, classes []serve.Class, spec serve.SchedulerSpec, policies []Spec, opts CurveOptions) ([]CurvePoint, error) {
	chips := opts.Chips
	if chips <= 0 {
		chips = 1
	}
	if len(policies) == 0 {
		policies = Policies()
	}
	gaps := opts.Gaps
	if len(gaps) == 0 {
		loads := make([]float64, len(serve.DefaultGapFactors))
		for i, f := range serve.DefaultGapFactors {
			loads[i] = f * float64(chips)
		}
		var err error
		if gaps, err = serve.Gaps(cfg, classes, loads...); err != nil {
			return nil, err
		}
	}

	points := make([]CurvePoint, 0, len(gaps))
	for _, gap := range gaps {
		sopts := opts.Stream
		sopts.MeanGap = gap
		s, err := serve.NewStream(cfg, classes, sopts)
		if err != nil {
			return nil, err
		}
		pt := CurvePoint{MeanGap: gap, ChipLoad: s.OfferedLoad() / float64(chips)}
		for _, pspec := range policies {
			r, err := Serve(cfg, s, spec, pspec.New(), opts.Options)
			if err != nil {
				return nil, fmt.Errorf("cluster: %s at gap %d: %w", pspec.Name, gap, err)
			}
			pt.Results = append(pt.Results, r)
		}
		points = append(points, pt)
	}
	return points, nil
}

// PrintCurve renders a cluster load sweep as one aggregate table per
// offered-load point: tail latency, SLA miss rate, cluster throughput
// and load imbalance per routing policy.
func PrintCurve(w io.Writer, points []CurvePoint) error {
	for _, pt := range points {
		t := metrics.NewTable("policy", "p50", "p99", "p99.9", "miss rate", "req/Mcyc", "PE util", "imbalance")
		for _, r := range pt.Results {
			t.AddRow(r.Policy,
				fmt.Sprint(r.Agg.P50), fmt.Sprint(r.Agg.P99), fmt.Sprint(r.Agg.P999),
				metrics.Pct(r.Agg.MissRate), metrics.F(r.Agg.Throughput),
				metrics.Pct(r.Agg.PEUtil), metrics.F(r.Imbalance))
		}
		chips := 1
		if len(pt.Results) > 0 {
			chips = pt.Results[0].Chips
		}
		if _, err := fmt.Fprintf(w, "chips %d, per-chip offered load %.2f (mean gap %d)\n%s\n",
			chips, pt.ChipLoad, pt.MeanGap, t); err != nil {
			return err
		}
	}
	return nil
}

// PrintChips renders one cluster result's per-chip breakdown.
func PrintChips(w io.Writer, r *Result) error {
	t := metrics.NewTable("chip", "requests", "p50", "p99", "miss rate", "PE util")
	for c, rep := range r.PerChip {
		t.AddRow(fmt.Sprint(c), fmt.Sprint(rep.Requests),
			fmt.Sprint(rep.P50), fmt.Sprint(rep.P99),
			metrics.Pct(rep.MissRate), metrics.Pct(rep.PEUtil))
	}
	_, err := fmt.Fprintf(w, "policy %s, %d chips\n%s", r.Policy, r.Chips, t)
	return err
}
