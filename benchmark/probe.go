package main

import (
	"sync"
	"time"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/sim"
)

// probe collects one traced unit's per-layer host measurements. The
// program has no hooks for this: every number comes from timing calls
// into public functions, or from wrappers around the interfaces the
// program already accepts (sim.Scheduler, cluster.Policy, sim.Tracer).
// A nil *probe is the untraced path: it wraps nothing and times nothing.
type probe struct {
	mu     sync.Mutex // chip schedulers register from sweep workers
	scheds []*schedProbe

	policy *policyProbe
	tracer *tracerProbe

	// ns and allocs accumulate host time and heap objects per timed
	// call, keyed by layer span name (see span).
	ns     map[string]time.Duration
	allocs map[string]uint64

	// counts holds per-unit values read from the program's outputs
	// (registry series, ledger decisions, compiled sub-layers).
	counts map[string]float64
}

func newProbe() *probe {
	return &probe{ns: map[string]time.Duration{}, allocs: map[string]uint64{}, counts: map[string]float64{}}
}

// span runs f and charges its host time and heap objects to name.
func (p *probe) span(name string, f func()) {
	if p == nil {
		f()
		return
	}
	a, start := heapObjects(), now()
	f()
	p.ns[name] += now() - start
	p.allocs[name] += heapObjects() - a
}

// spanTotal is the host time of every span recorded so far.
func (p *probe) spanTotal() time.Duration {
	var t time.Duration
	for _, d := range p.ns {
		t += d
	}
	return t
}

// scheduler wraps a scheduler in a timing probe. The wrapper forwards
// sim.StatefulScheduler and sim.EngineAware exactly when the inner
// scheduler implements them, so the engine sees the same capabilities.
func (p *probe) scheduler(inner sim.Scheduler) sim.Scheduler {
	if p == nil {
		return inner
	}
	sp := &schedProbe{inner: inner}
	p.mu.Lock()
	p.scheds = append(p.scheds, sp)
	p.mu.Unlock()
	st, stateful := inner.(sim.StatefulScheduler)
	ea, aware := inner.(sim.EngineAware)
	switch {
	case stateful && aware:
		return struct {
			*schedProbe
			sim.StatefulScheduler
			sim.EngineAware
		}{sp, st, ea}
	case stateful:
		return struct {
			*schedProbe
			sim.StatefulScheduler
		}{sp, st}
	case aware:
		return struct {
			*schedProbe
			sim.EngineAware
		}{sp, ea}
	}
	return sp
}

// routing wraps a routing policy in a timing probe.
func (p *probe) routing(inner cluster.Policy) cluster.Policy {
	if p == nil {
		return inner
	}
	p.policy = &policyProbe{inner: inner}
	return p.policy
}

// engineTracer wraps an engine tracer in a timing probe.
func (p *probe) engineTracer(inner sim.Tracer) sim.Tracer {
	if p == nil {
		return inner
	}
	p.tracer = &tracerProbe{inner: inner}
	return p.tracer
}

// epoch anchors now.
var epoch = time.Now()

// now reads the monotonic clock once; time.Now reads the wall clock
// too, which doubles the cost of timing a call that takes 100 ns.
func now() time.Duration { return time.Since(epoch) }

// schedProbe times every call into a scheduler. One instance serves one
// engine, so it needs no locking.
type schedProbe struct {
	inner sim.Scheduler

	picks, mbPicks, mbIdle, hooks int64
	pickTime, hookTime            time.Duration

	// first and last bound the engine's run from the outside: the span
	// from its first to its last scheduler call.
	first, last time.Duration
	called      bool
}

func (s *schedProbe) enter() time.Duration {
	t := now()
	if !s.called {
		s.first, s.called = t, true
	}
	return t
}

func (s *schedProbe) leave(start time.Duration, acc *time.Duration) {
	s.last = now()
	*acc += s.last - start
}

func (s *schedProbe) Name() string { return s.inner.Name() }

func (s *schedProbe) PickMB(v *sim.View) (sim.MBRef, bool) {
	t := s.enter()
	r, ok := s.inner.PickMB(v)
	s.leave(t, &s.pickTime)
	s.picks++
	s.mbPicks++
	if !ok {
		s.mbIdle++
	}
	return r, ok
}

func (s *schedProbe) PickCB(v *sim.View) (sim.CBRef, bool) {
	t := s.enter()
	r, ok := s.inner.PickCB(v)
	s.leave(t, &s.pickTime)
	s.picks++
	return r, ok
}

func (s *schedProbe) OnMBDone(v *sim.View, r sim.MBRef) {
	t := s.enter()
	s.inner.OnMBDone(v, r)
	s.leave(t, &s.hookTime)
	s.hooks++
}

func (s *schedProbe) OnCBStart(v *sim.View, r sim.CBRef) {
	t := s.enter()
	s.inner.OnCBStart(v, r)
	s.leave(t, &s.hookTime)
	s.hooks++
}

func (s *schedProbe) OnCBDone(v *sim.View, r sim.CBRef) {
	t := s.enter()
	s.inner.OnCBDone(v, r)
	s.leave(t, &s.hookTime)
	s.hooks++
}

func (s *schedProbe) OnCBSplit(v *sim.View, r sim.CBRef, remaining arch.Cycles) {
	t := s.enter()
	s.inner.OnCBSplit(v, r, remaining)
	s.leave(t, &s.hookTime)
	s.hooks++
}

// policyProbe times every routing decision of one dispatch pass.
type policyProbe struct {
	inner    cluster.Policy
	picks    int64
	pickTime time.Duration
}

func (p *policyProbe) Name() string { return p.inner.Name() }

func (p *policyProbe) Pick(v *cluster.View, r cluster.Request) int {
	start := now()
	c := p.inner.Pick(v, r)
	p.pickTime += now() - start
	p.picks++
	return c
}

// tracerProbe times every occupancy event delivered to a tracer.
type tracerProbe struct {
	inner  sim.Tracer
	events int64
	time   time.Duration
}

func (t *tracerProbe) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	s := now()
	t.inner.Event(engine, name, net, layer, iter, start, end)
	t.time += now() - s
	t.events++
}

// layerValues turns one traced unit's probe into the per-layer metrics
// it determines. unit is the unit's host time; workers is the sweep
// pool size the cluster ran on. Simulated per-layer values come from o.
func (p *probe) layerValues(o *outcome, unit, covered time.Duration, workers int) map[string]float64 {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	perCall := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	v := map[string]float64{}
	for name, c := range p.counts {
		v[name] = c
	}

	var picks, mbPicks, mbIdle, hooks int64
	var pickTime, hookTime, chipSpans time.Duration
	for _, s := range p.scheds {
		picks += s.picks
		mbPicks += s.mbPicks
		mbIdle += s.mbIdle
		hooks += s.hooks
		pickTime += s.pickTime
		hookTime += s.hookTime
		chipSpans += s.last - s.first
	}
	v["core.picks"] = float64(picks)
	v["core.pick_ns"] = perCall(pickTime, picks)
	v["core.hook_ns"] = perCall(hookTime, hooks)
	if mbPicks > 0 {
		v["core.pickmb_idle_frac"] = float64(mbIdle) / float64(mbPicks)
	}

	var tracerTime time.Duration
	if t := p.tracer; t != nil {
		tracerTime = t.time
		v["rtrace.events"] = float64(t.events)
	}

	// On the cluster the engines run inside cluster.Serve on sweep
	// workers, so their run time is the sum of the per-chip spans
	// between first and last scheduler call.
	run, ok := p.ns["sim.run"]
	if !ok {
		run = chipSpans
	}
	v["sim.run_ms"] = ms(run)
	v["sim.self_ms"] = ms(run - pickTime - hookTime - tracerTime)
	if o.blocks > 0 {
		v["sim.ns_per_block"] = float64(run) / float64(o.blocks)
	}
	v["sim.run_allocs"] = float64(p.allocs["sim.run"])
	v["sim.pe_util"] = o.peUtil
	v["sim.mem_util"] = o.memUtil
	v["sim.splits"] = float64(o.splits)
	v["sram.peak_frac"] = o.sramPeak

	share := func(d time.Duration) float64 { return float64(d) / float64(unit) }
	v["serve.report_share"] = share(p.ns["serve.report"])
	v["serve.report_allocs"] = float64(p.allocs["serve.report"])
	v["serve.served"] = float64(o.served)
	v["serve.tok_per_mcycle"] = o.tokPerMcycle

	if pol := p.policy; pol != nil {
		v["cluster.policy_picks"] = float64(pol.picks)
		v["cluster.policy_share"] = share(pol.pickTime)
		v["cluster.dispatch_share"] = share(p.ns["cluster.dispatch"])
		v["cluster.shed_frac"] = o.shedFrac
		v["cluster.imbalance"] = o.imbalance
		if serve := p.ns["cluster.serve"]; serve > 0 && workers > 0 {
			v["sweep.parallel_eff"] = float64(chipSpans) / (float64(workers) * float64(serve))
		}
	}

	v["rtrace.event_share"] = share(tracerTime)
	v["rtrace.build_share"] = share(p.ns["rtrace.build"])
	v["rtrace.build_allocs"] = float64(p.allocs["rtrace.build"])
	v["rtrace.addrun_share"] = share(p.ns["rtrace.addrun"])
	v["obs.publish_share"] = share(p.ns["obs.publish"])
	v["obs.scrape_share"] = share(p.ns["obs.scrape"])

	v["bench.layer_coverage"] = share(covered)
	return v
}
