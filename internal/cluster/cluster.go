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
// The package also holds the one serving sweep driver (Sweep): load
// points × schedulers × routes, where an unrouted run is the
// single-chip serve path on the stream itself. Serve is its one-run
// case. A one-chip cluster is, by construction, the single-engine
// serve path: every policy routes all requests to chip 0, the
// sub-stream is the stream, and the chip simulation is the same
// sim.Run call — enforced bit-for-bit by the differential tests.
package cluster

import (
	"fmt"
	"io"
	"strconv"
	"sync"

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

// Result is one run's serving outcome: one scheduler over one stream,
// routed across a cluster or unrouted on a single chip.
type Result struct {
	// Policy and Scheduler label the routing policy and the per-chip
	// scheduler. Policy is empty for an unrouted run.
	Policy    string
	Scheduler string

	// Chips is the cluster size (1 for an unrouted run).
	Chips int

	// Assignment maps each request index to its chip; nil for an
	// unrouted run.
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

	// Spans holds the attributed per-request traces of a routed run
	// when Options.Trace was set (request-granular, stream request
	// ids); nil otherwise.
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
// It is the one-run case of Sweep: one dispatch, one sweep.Run, one
// fold.
func Serve(cfg arch.Config, s *serve.Stream, spec serve.SchedulerSpec, pol Policy, opts Options) (*Result, error) {
	res, _, err := serveRun(cfg, s, spec, pol, opts)
	return res, err
}

// serveRun is Serve that also returns each chip's occupancy log in
// chip-local instance coordinates (nil for chips that served nothing,
// and all nil unless opts.Trace is set), for exports that render the
// chips' engine timelines. The logs are not kept on Result: a load
// sweep retains every Result, and the logs are O(events).
func serveRun(cfg arch.Config, s *serve.Stream, spec serve.SchedulerSpec, pol Policy, opts Options) (*Result, []*rtrace.Collector, error) {
	r := &run{s: s, spec: spec, pol: pol, chips: max(opts.Chips, 1)}
	jobs, err := r.plan(cfg, &opts, make([]sweep.Job, 0, r.chips))
	if err != nil {
		return nil, nil, err
	}
	outs := sweep.Run(jobs, sweep.Options{Workers: opts.Workers})
	if err := sweep.FirstError(outs); err != nil {
		return nil, nil, err
	}
	res := r.fold(outs, &opts)
	opts.Trace.Publish(opts.Metrics)
	return res, r.cols, nil
}

// run is one cell of a sweep: one stream served under one scheduler,
// either unrouted on a single chip (pol nil) or routed across chips by
// pol. plan dispatches it and appends its chip jobs to the sweep; fold
// turns the jobs' outcomes into its Result.
type run struct {
	s     *serve.Stream
	spec  serve.SchedulerSpec
	pol   Policy
	chips int

	// Set by plan. subs holds each chip's stream (the stream itself
	// for an unrouted run, nil for chips that serve nothing), and the
	// run's jobs are outs[first:], one per non-nil sub, in chip order.
	assign  []int
	shed    []bool
	st      ctlStats
	etas    []arch.Cycles
	perChip [][]int
	subs    []*serve.Stream
	cols    []*rtrace.Collector
	first   int

	// notes logs the control plane's shed and scale decisions until
	// the first of the run's jobs starts, so in the ledger a run's
	// front-door decisions precede its chips' engine decisions even
	// though every run of a sweep is dispatched before any chip runs.
	// led is nil when the run has no ledger.
	notes obs.Log
	led   *obs.Ledger
	noted sync.Once
}

// plan dispatches the run (routed runs only) and appends one sweep job
// per chip that serves requests.
func (r *run) plan(cfg arch.Config, opts *Options, jobs []sweep.Job) ([]sweep.Job, error) {
	r.first = len(jobs)
	if r.pol == nil {
		// Unrouted: the one chip runs the stream itself, no sub-stream.
		r.subs = []*serve.Stream{r.s}
	} else if err := r.route(cfg, opts); err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		r.cols = make([]*rtrace.Collector, len(r.subs))
	}
	for c, sub := range r.subs {
		if sub == nil {
			continue
		}
		var netClasses []string
		if opts.Metrics != nil {
			netClasses = sub.NetClasses()
		}
		// The tracer is assigned only when there is a collector, so an
		// untraced chip never gets a non-nil Tracer wrapping a nil one.
		var tracer sim.Tracer
		if r.cols != nil {
			r.cols[c] = rtrace.NewCollector(len(sub.Nets))
			tracer = r.cols[c]
		}
		jobs = append(jobs, sweep.Job{
			Mix:       sub.Name,
			Scheduler: r.spec.Name,
			Cfg:       cfg,
			Nets:      sub.Nets,
			New: func() sim.Scheduler {
				r.flushNotes()
				return r.spec.New(cfg, sub)
			},
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
	}
	return jobs, nil
}

// route runs the front door over the stream and cuts one sub-stream
// per chip that received requests.
func (r *run) route(cfg arch.Config, opts *Options) error {
	var pred *predictor
	if r.pol.Name() == "predictive" {
		// The predictive policy is meaningless without the predictor;
		// selecting it is the one switch that attaches it.
		pred = newPredictor(cfg, r.s, r.chips)
	}
	if opts.Trace != nil {
		r.etas = make([]arch.Cycles, len(r.s.Nets))
	}
	var notes *obs.Log
	if opts.Ledger != nil {
		r.led, notes = opts.Ledger, &r.notes
		notes.Reset(r.led, 0)
	}
	var err error
	r.assign, r.shed, r.st, err = dispatch(r.s, r.pol, r.chips, opts.Control, pred, notes, r.etas)
	if err != nil {
		return err
	}
	// Count each chip's entries, then cut every chip's index list from
	// one backing array at its final length.
	counts := make([]int, r.chips)
	routed := 0
	for _, c := range r.assign {
		if c >= 0 { // c < 0: shed at the front door, never reached a chip
			counts[c]++
			routed++
		}
	}
	r.perChip = make([][]int, r.chips)
	flat, off := make([]int, routed), 0
	for c, n := range counts {
		r.perChip[c] = flat[off : off : off+n]
		off += n
	}
	for i, c := range r.assign {
		if c >= 0 {
			r.perChip[c] = append(r.perChip[c], i)
		}
	}
	r.subs = make([]*serve.Stream, r.chips)
	for c, idx := range r.perChip {
		if len(idx) == 0 {
			continue
		}
		if r.subs[c], err = r.s.SubStream(fmt.Sprintf("%s-chip%d", r.s.Name, c), idx); err != nil {
			return err
		}
	}
	return nil
}

// flushNotes folds the run's control-plane decisions into the ledger,
// once, whichever of its jobs starts first.
func (r *run) flushNotes() {
	if r.led == nil {
		return
	}
	r.noted.Do(func() { r.led.Fold(&r.notes) })
}

// fold builds the run's Result from the sweep outcomes (all of them;
// the run reads its own slots) and publishes it.
func (r *run) fold(outs []sweep.Outcome, opts *Options) *Result {
	r.flushNotes() // a run whose every request was shed has no job
	outs = outs[r.first:]
	name := r.spec.Name
	if r.pol == nil {
		res := outs[0].Res
		rep := serve.BuildReport(r.s, res)
		rep.Scheduler = name
		rep.Publish(opts.Metrics)
		if opts.Trace != nil {
			in := serve.TraceInput(r.s, res, fmt.Sprintf("%s@%.2f", name, r.s.OfferedLoad()))
			opts.Trace.AddRun(rtrace.Build(in, r.cols[0]))
		}
		return &Result{
			Scheduler:   name,
			Chips:       1,
			PerChip:     []*serve.Report{rep},
			ChipResults: []*sim.Result{res},
			Agg:         rep,
			ActiveChips: 1,
		}
	}

	s, chips := r.s, r.chips
	res := &Result{
		Policy:      r.pol.Name(),
		Scheduler:   name,
		Chips:       chips,
		Assignment:  r.assign,
		PerChip:     make([]*serve.Report, chips),
		ChipResults: make([]*sim.Result, chips),
		Shed:        r.shed,
		ShedCount:   r.st.shedCount,
		ScaleUps:    r.st.scaleUps,
		ScaleDowns:  r.st.scaleDowns,
		ActiveChips: r.st.active,
	}

	// Merge the chip results into one stream-indexed result so the
	// aggregate report is built by the same fold as the single-chip
	// path. The merged engine-busy totals are sums over chips; the
	// cluster makespan is the latest chip makespan.
	merged := &sim.Result{
		Scheduler: name,
		NetNames:  make([]string, len(s.Nets)),
		NetArrive: append([]arch.Cycles(nil), s.Arrivals...),
		NetFinish: make([]arch.Cycles, len(s.Nets)),
	}
	ji := 0
	for c, sub := range r.subs {
		if sub == nil {
			res.PerChip[c] = &serve.Report{Scheduler: name}
			continue
		}
		o := outs[ji].Res
		ji++
		res.ChipResults[c] = o
		rep := serve.BuildReport(sub, o)
		rep.Scheduler = name
		res.PerChip[c] = rep
		if o.Makespan > merged.Makespan {
			merged.Makespan = o.Makespan
		}
		merged.MemBusy += o.MemBusy
		merged.PEBusy += o.PEBusy
		merged.HostBusy += o.HostBusy
		merged.MBCount += o.MBCount
		merged.CBCount += o.CBCount
		merged.Splits += o.Splits
		for li, gi := range r.perChip[c] {
			merged.NetFinish[gi] = o.NetFinish[li]
			// The chip result's arrival is the effective one (a decode
			// phase arrives when its predecessor finishes); for unchained
			// entries it equals the stream arrival, so this copy is an
			// identity on single-phase streams.
			merged.NetArrive[gi] = o.NetArrive[li]
			merged.NetNames[gi] = o.NetNames[li]
		}
	}

	if opts.Trace != nil {
		// Merge the per-chip collectors into stream coordinates and
		// attribute every request against the merged result; shed
		// requests keep their failed admission prediction as the ETA.
		gcol := rtrace.NewCollector(len(s.Nets))
		for c, col := range r.cols {
			if col != nil {
				gcol.Merge(col, r.perChip[c])
			}
		}
		in := serve.TraceInput(s, merged, fmt.Sprintf("%s/%s", name, res.Policy))
		in.Chip = r.assign
		in.ETA = r.etas
		in.Shed = r.shed
		res.Spans = rtrace.Build(in, gcol)
		opts.Trace.AddRun(res.Spans)
	}

	agg := serve.BuildReportShed(s, merged, r.shed)
	agg.Scheduler = name
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
		if o := res.ChipResults[c]; o != nil && merged.Makespan > 0 {
			utils[c] = float64(o.PEBusy) / float64(merged.Makespan)
		}
	}
	res.Imbalance = metrics.Imbalance(utils)
	res.publish(opts.Metrics, utils)
	return res
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
