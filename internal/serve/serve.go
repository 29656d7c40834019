package serve

import (
	"aimt/internal/arch"
	"aimt/internal/hdr"
	"aimt/internal/obs"
	"aimt/internal/rtrace"
	"aimt/internal/sched"
	"aimt/internal/sim"
)

// ClassStats aggregates one request class's outcomes within a report.
type ClassStats struct {
	// Class is the class name.
	Class string
	// Requests is the number of requests of this class in the stream,
	// shed ones included.
	Requests int
	// Shed is how many were dropped by admission control before
	// reaching a chip.
	Shed int
	// Misses is how many served requests finished after their deadline.
	Misses int
	// MissRate is Misses over served (admitted) requests. A class that
	// is entirely shed has no served requests; its row is zero-valued
	// rather than dividing by zero.
	MissRate float64
	// P99 is the class's 99th-percentile latency over served requests.
	P99 arch.Cycles
}

// PhaseStats aggregates one request phase's outcomes within a report.
// A phase with no entries in the stream gets a zero-valued row rather
// than dividing by its zero served count.
type PhaseStats struct {
	// Phase is the phase this row aggregates.
	Phase Phase
	// Entries is the number of stream entries of this phase, shed ones
	// included.
	Entries int
	// Shed is how many were dropped by admission control.
	Shed int
	// Misses is how many served entries finished after their deadline.
	Misses int
	// MissRate is Misses over served entries.
	MissRate float64
	// P50 and P99 are latency quantiles over served entries. Decode
	// latency is measured from the phase's effective arrival (its
	// predecessor's finish), so it is a per-token latency.
	P50, P99 arch.Cycles
}

// Report summarizes one scheduler's run over a stream. It is built by
// streaming over the result once — per-request latencies live only in
// the histogram, so its size is O(buckets), not O(requests).
type Report struct {
	// Scheduler is the policy name.
	Scheduler string

	// Requests is the stream entry count (phases count individually for
	// multi-phase streams).
	Requests int

	// Makespan is the cycle the last request completed.
	Makespan arch.Cycles

	// Throughput is completed requests per million cycles.
	Throughput float64

	// Latency is the streaming latency distribution; query it for
	// quantiles beyond the pre-extracted ones below.
	Latency hdr.Histogram

	// P50, P95, P99 and P999 are request-latency quantiles.
	P50, P95, P99, P999 arch.Cycles

	// Misses counts requests that finished after their deadline;
	// MissRate is Misses over served requests.
	Misses   int
	MissRate float64

	// Shed counts requests dropped by admission control; they are
	// excluded from the latency distribution and the miss counts.
	Shed int

	// PEUtil and MemUtil are engine busy fractions over the makespan.
	PEUtil, MemUtil float64

	// PerClass breaks requests and misses down by request class.
	PerClass []ClassStats

	// PerPhase breaks entries down by request phase (one prefill row
	// and one decode row); nil for single-phase streams, so reports
	// over the existing mixes are unchanged.
	PerPhase []PhaseStats

	// Tokens counts generated tokens: completed decode entries times
	// their class batch size. TokensPerMcycle is Tokens per million
	// cycles of makespan — the transformer serving headline
	// (tokens/sec at the configured clock). Zero for single-phase
	// streams.
	Tokens          int
	TokensPerMcycle float64
}

// BuildReport folds a simulation result into a Report without
// materializing a latency slice. res must come from a run over s's
// requests (Serve does this internally; the cluster layer calls it on
// per-chip sub-streams and on the merged cluster result).
func BuildReport(s *Stream, res *sim.Result) *Report {
	return BuildReportShed(s, res, nil)
}

// BuildReportShed is BuildReport for a run where admission control
// dropped some requests: shed[i], when true, marks request i as shed —
// it counts toward its class's offered requests and the shed totals,
// but contributes no latency sample and no SLA miss. A nil shed is
// equivalent to BuildReport. A class whose requests were all shed gets
// a zero-valued row (no miss rate, no quantiles) rather than dividing
// by its zero served count.
func BuildReportShed(s *Stream, res *sim.Result, shed []bool) *Report {
	r := &Report{
		Scheduler: res.Scheduler,
		Requests:  len(s.Nets),
		Makespan:  res.Makespan,
		PEUtil:    res.PEUtilization(),
		MemUtil:   res.MemUtilization(),
	}
	perClass := make([]ClassStats, len(s.Classes))
	classHist := make([]hdr.Histogram, len(s.Classes))
	for i := range perClass {
		perClass[i].Class = s.Classes[i]
	}
	// Multi-phase streams additionally get one prefill and one decode
	// row (PhaseSingle entries of a mixed stream are covered by their
	// class row).
	var perPhase []PhaseStats
	var phaseHist []hdr.Histogram
	phaseRow := func(i int) *PhaseStats {
		if perPhase == nil {
			return nil
		}
		switch s.PhaseOf[i] {
		case PhasePrefill:
			return &perPhase[0]
		case PhaseDecode:
			return &perPhase[1]
		}
		return nil
	}
	if s.PhaseOf != nil {
		perPhase = []PhaseStats{{Phase: PhasePrefill}, {Phase: PhaseDecode}}
		phaseHist = make([]hdr.Histogram, len(perPhase))
	}
	for i := range s.Nets {
		ci := s.ClassOf[i]
		if i < len(shed) && shed[i] {
			r.Shed++
			perClass[ci].Requests++
			perClass[ci].Shed++
			if ps := phaseRow(i); ps != nil {
				ps.Entries++
				ps.Shed++
			}
			continue
		}
		if i >= len(res.NetFinish) || i >= len(res.NetArrive) {
			break
		}
		lat := res.NetFinish[i] - res.NetArrive[i]
		r.Latency.Record(lat)
		perClass[ci].Requests++
		classHist[ci].Record(lat)
		miss := res.NetFinish[i] > s.Deadlines[i]
		if miss {
			r.Misses++
			perClass[ci].Misses++
		}
		if ps := phaseRow(i); ps != nil {
			ps.Entries++
			phaseHist[ps.Phase-PhasePrefill].Record(lat)
			if miss {
				ps.Misses++
			}
			if s.PhaseOf[i] == PhaseDecode && ci < len(s.ClassBatch) {
				r.Tokens += s.ClassBatch[ci]
			}
		}
	}
	for i := range perClass {
		perClass[i].P99 = classHist[i].Quantile(99)
		if served := perClass[i].Requests - perClass[i].Shed; served > 0 {
			perClass[i].MissRate = float64(perClass[i].Misses) / float64(served)
		}
	}
	for i := range perPhase {
		perPhase[i].P50 = phaseHist[i].Quantile(50)
		perPhase[i].P99 = phaseHist[i].Quantile(99)
		if served := perPhase[i].Entries - perPhase[i].Shed; served > 0 {
			perPhase[i].MissRate = float64(perPhase[i].Misses) / float64(served)
		}
	}
	r.PerClass = perClass
	r.PerPhase = perPhase
	if r.Makespan > 0 {
		r.TokensPerMcycle = float64(r.Tokens) / float64(r.Makespan) * 1e6
	}
	r.P50 = r.Latency.Quantile(50)
	r.P95 = r.Latency.Quantile(95)
	r.P99 = r.Latency.Quantile(99)
	r.P999 = r.Latency.Quantile(99.9)
	if n := r.Latency.Count(); n > 0 {
		r.MissRate = float64(r.Misses) / float64(n)
	}
	if r.Makespan > 0 {
		r.Throughput = float64(r.Latency.Count()) / float64(r.Makespan) * 1e6
	}
	return r
}

// Publish folds the report into an observability registry: request
// and SLA-violation counters (total and per class) plus headline
// latency, miss-rate and utilization gauges, all labeled by
// scheduler. Counters accumulate across publishes — over a load sweep
// they total the whole sweep — while gauges reflect the last
// published report. A nil registry is a no-op.
func (r *Report) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sl := func(name string) string { return obs.Label(name, "scheduler", r.Scheduler) }
	reg.Counter(sl("aimt_serve_requests_total")).Add(int64(r.Requests))
	reg.Counter(sl("aimt_serve_sla_misses_total")).Add(int64(r.Misses))
	if r.Shed > 0 {
		reg.Counter(sl("aimt_serve_shed_total")).Add(int64(r.Shed))
	}
	for _, cs := range r.PerClass {
		cl := func(name string) string { return obs.Label(sl(name), "class", cs.Class) }
		reg.Counter(cl("aimt_serve_class_requests_total")).Add(int64(cs.Requests))
		reg.Counter(cl("aimt_serve_class_sla_misses_total")).Add(int64(cs.Misses))
		if cs.Shed > 0 {
			reg.Counter(cl("aimt_serve_class_shed_total")).Add(int64(cs.Shed))
		}
		reg.Gauge(cl("aimt_serve_class_p99_cycles")).Set(float64(cs.P99))
	}
	reg.Gauge(sl("aimt_serve_p50_cycles")).Set(float64(r.P50))
	reg.Gauge(sl("aimt_serve_p99_cycles")).Set(float64(r.P99))
	reg.Gauge(sl("aimt_serve_p999_cycles")).Set(float64(r.P999))
	reg.Gauge(sl("aimt_serve_miss_rate")).Set(r.MissRate)
	reg.Gauge(sl("aimt_serve_throughput_per_mcycle")).Set(r.Throughput)
	reg.Gauge(sl("aimt_serve_pe_util")).Set(r.PEUtil)
	reg.Gauge(sl("aimt_serve_mem_util")).Set(r.MemUtil)
	for _, ps := range r.PerPhase {
		pl := func(name string) string { return obs.Label(sl(name), "phase", ps.Phase.String()) }
		reg.Counter(pl("aimt_serve_phase_requests_total")).Add(int64(ps.Entries))
		reg.Counter(pl("aimt_serve_phase_sla_misses_total")).Add(int64(ps.Misses))
		if ps.Shed > 0 {
			reg.Counter(pl("aimt_serve_phase_shed_total")).Add(int64(ps.Shed))
		}
		reg.Gauge(pl("aimt_serve_phase_p99_cycles")).Set(float64(ps.P99))
	}
	if r.PerPhase != nil {
		reg.Gauge(sl("aimt_serve_tokens_per_mcycle")).Set(r.TokensPerMcycle)
	}
}

// Serve runs one stream under one scheduler and reports SLA
// attainment and tail latency. opts.Arrivals is overwritten with the
// stream's arrival times. When opts.Metrics is set the run emits live
// engine series (per-class in-flight included) and the report is
// published on completion.
func Serve(cfg arch.Config, s *Stream, sch sim.Scheduler, opts sim.Options) (*Report, error) {
	opts.Arrivals = s.Arrivals
	opts.ChainAfter = s.ChainAfter
	if opts.Metrics != nil && opts.NetClasses == nil {
		opts.NetClasses = s.NetClasses()
	}
	res, err := sim.Run(cfg, s.Nets, sch, opts)
	if err != nil {
		return nil, err
	}
	rep := BuildReport(s, res)
	rep.Publish(opts.Metrics)
	return rep, nil
}

// SchedulerSpec names a scheduler and builds a fresh instance per run.
// The factory receives the stream so deadline-aware policies can read
// its deadlines.
type SchedulerSpec struct {
	// Name labels the scheduler in curves and reports.
	Name string
	// New constructs a fresh scheduler for one run over the stream.
	New func(cfg arch.Config, s *Stream) sim.Scheduler
}

// Spec adapts a scheduler registry entry to a serving spec whose
// factory reads the stream's deadlines and class priorities.
func Spec(e sched.Entry) SchedulerSpec {
	return SchedulerSpec{Name: e.Name, New: func(cfg arch.Config, s *Stream) sim.Scheduler {
		return e.New(cfg, sched.Input{Deadlines: s.Deadlines, Priorities: s.netPriorities()})
	}}
}

// SpecByName resolves a serving spec through the scheduler registry.
func SpecByName(name string) (SchedulerSpec, error) {
	e, err := sched.ByName(name)
	if err != nil {
		return SchedulerSpec{}, err
	}
	return Spec(e), nil
}

// StandardSchedulers returns the serving comparison set: FIFO and
// PREMA baselines, the full AI-MT mechanism stack, and deadline-aware
// EDF.
func StandardSchedulers() []SchedulerSpec {
	var out []SchedulerSpec
	for _, name := range []string{"FIFO", "PREMA", "AI-MT", "EDF"} {
		spec, err := SpecByName(name)
		if err != nil {
			panic(err) // registry names are static
		}
		out = append(out, spec)
	}
	return out
}

// TraceInput adapts a stream plus its finished result to the
// request-span builder (rtrace.Build). The caller fills the cluster
// fields (Chip, ETA, Shed) when they apply.
func TraceInput(s *Stream, res *sim.Result, run string) rtrace.Input {
	in := rtrace.Input{
		Run:          run,
		Classes:      s.Classes,
		ClassOf:      s.ClassOf,
		ReqOf:        s.ReqOf,
		StreamArrive: s.Arrivals,
		Deadlines:    s.Deadlines,
		Arrive:       res.NetArrive,
		Finish:       res.NetFinish,
	}
	if s.PhaseOf != nil {
		ph := make([]string, len(s.PhaseOf))
		for i, p := range s.PhaseOf {
			ph[i] = p.String()
		}
		in.Phases = ph
	}
	return in
}
