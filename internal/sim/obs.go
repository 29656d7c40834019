package sim

import (
	"strconv"

	"aimt/internal/arch"
	"aimt/internal/hdr"
	"aimt/internal/obs"
)

// simObs bundles the engine's pre-resolved metric handles. The engine
// resolves every series once at Run start, so hot-loop emission is a
// handful of atomic operations — no map lookups, no allocations, no
// locks: the block-size distributions fill run-local histograms that
// flush folds into the registry's when each event-loop call returns.
// A nil *simObs (no Options.Metrics) disables metric emission
// entirely; the decision ledger is gated separately by View.led.
type simObs struct {
	// Lifetime counters. With several runs sharing one registry (a
	// parallel sweep, a multi-chip cluster), counters aggregate across
	// runs; gauges reflect the most recent writer.
	prefetches *obs.Counter // MBs issued to the HBM channel
	merges     *obs.Counter // CBs claimed ahead of execution
	evictions  *obs.Counter // early-eviction capacity reservations
	splits     *obs.Counter // halted compute blocks
	preempts   *obs.Counter // priority preemption split requests
	lookaheads *obs.Counter // committed speculative lookahead decisions
	mbDone     *obs.Counter
	cbDone     *obs.Counter
	netsDone   *obs.Counter
	memBusyC   *obs.Counter // busy cycles per engine
	peBusyC    *obs.Counter
	hostBusyC  *obs.Counter

	// Live machine state.
	now        *obs.Gauge
	activeNets *obs.Gauge
	sramUsed   *obs.Gauge
	sramTotal  *obs.Gauge
	sramPeak   *obs.Gauge
	availCB    *obs.Gauge
	hostQ      *obs.Gauge
	memUtil    *obs.Gauge
	peUtil     *obs.Gauge

	// Block-size distributions: the registry's, and the run-local ones
	// the engine records into until the next flush.
	mbHist, cbHist *obs.Histogram
	mbRun, cbRun   hdr.Histogram

	// classGauge, when Options.NetClasses is set, maps each net index
	// to its class's in-flight gauge (nets of one class share a
	// handle). Nil entries mean the net is unlabeled.
	classGauge []*obs.Gauge
}

// reset resolves o's handles against reg for a run of numNets nets,
// keeping the run-local histograms' and class gauges' storage.
func (o *simObs) reset(reg *obs.Registry, classes []string, numNets int) {
	mbRun, cbRun, classGauge := o.mbRun, o.cbRun, o.classGauge[:0]
	mbRun.Reset()
	cbRun.Reset()
	*o = simObs{
		prefetches: reg.Counter("aimt_sim_mb_prefetch_total"),
		merges:     reg.Counter("aimt_sim_cb_merge_total"),
		evictions:  reg.Counter("aimt_sim_evictions_total"),
		splits:     reg.Counter("aimt_sim_cb_splits_total"),
		preempts:   reg.Counter("aimt_sim_preempt_total"),
		lookaheads: reg.Counter("aimt_sim_lookahead_total"),
		mbDone:     reg.Counter("aimt_sim_mb_completed_total"),
		cbDone:     reg.Counter("aimt_sim_cb_completed_total"),
		netsDone:   reg.Counter("aimt_sim_nets_finished_total"),
		memBusyC:   reg.Counter("aimt_sim_mem_busy_cycles_total"),
		peBusyC:    reg.Counter("aimt_sim_pe_busy_cycles_total"),
		hostBusyC:  reg.Counter("aimt_sim_host_busy_cycles_total"),
		now:        reg.Gauge("aimt_sim_now_cycles"),
		activeNets: reg.Gauge("aimt_sim_active_nets"),
		sramUsed:   reg.Gauge("aimt_sim_sram_used_blocks"),
		sramTotal:  reg.Gauge("aimt_sim_sram_total_blocks"),
		sramPeak:   reg.Gauge("aimt_sim_sram_peak_blocks"),
		availCB:    reg.Gauge("aimt_sim_avail_cb_cycles"),
		hostQ:      reg.Gauge("aimt_sim_host_queue_depth"),
		memUtil:    reg.Gauge("aimt_sim_mem_util"),
		peUtil:     reg.Gauge("aimt_sim_pe_util"),
		mbHist:     reg.Histogram("aimt_sim_mb_cycles"),
		cbHist:     reg.Histogram("aimt_sim_cb_cycles"),
		mbRun:      mbRun,
		cbRun:      cbRun,
	}
	if len(classes) > 0 {
		byName := make(map[string]*obs.Gauge, 4)
		if cap(classGauge) < numNets {
			classGauge = make([]*obs.Gauge, numNets)
		}
		o.classGauge = classGauge[:numNets]
		clear(o.classGauge)
		for i := 0; i < numNets && i < len(classes); i++ {
			name := classes[i]
			g := byName[name]
			if g == nil {
				g = reg.Gauge("aimt_sim_inflight{class=" + strconv.Quote(name) + "}")
				byName[name] = g
			}
			o.classGauge[i] = g
		}
	}
}

// drop releases every registry handle, keeping the storage reset
// reuses.
func (o *simObs) drop() {
	clear(o.classGauge)
	*o = simObs{mbRun: o.mbRun, cbRun: o.cbRun, classGauge: o.classGauge[:0]}
}

// flush folds the run-local block-size histograms into the registry's
// and empties them.
func (o *simObs) flush() {
	if o.mbRun.Count() > 0 {
		o.mbHist.Merge(&o.mbRun)
		o.mbRun.Reset()
	}
	if o.cbRun.Count() > 0 {
		o.cbHist.Merge(&o.cbRun)
		o.cbRun.Reset()
	}
}

// arrive notes a network entering the in-flight population.
func (o *simObs) arrive(net, active int) {
	o.activeNets.Set(float64(active))
	if net < len(o.classGauge) && o.classGauge[net] != nil {
		o.classGauge[net].Add(1)
	}
}

// finish notes a network completing.
func (o *simObs) finish(net, active int) {
	o.netsDone.Inc()
	o.activeNets.Set(float64(active))
	if net < len(o.classGauge) && o.classGauge[net] != nil {
		o.classGauge[net].Add(-1)
	}
}

// stallCause attributes the machine's binding resource at a decision:
// pe-bound when the weight SRAM cannot take need more blocks (the
// channel waits on compute to consume weights), hbm-bound when no
// resident unconsumed compute exists (the PE complex waits on
// memory), none otherwise. need <= 0 asks only whether SRAM is
// completely full.
func (v *View) stallCause(need int) string {
	if free := v.FreeBlocks(); free == 0 || free < need {
		return obs.StallPE
	}
	if v.availCB == 0 {
		return obs.StallHBM
	}
	return obs.StallNone
}

// note appends one decision to the run's ledger. Callers must have
// checked v.led != nil; stall is a Stall* constant, usually from
// stallCause (splits pass StallPE directly — a split is by
// construction a capacity-recovery decision).
func (v *View) note(kind string, net, layer, iter int, stall string, detail arch.Cycles) {
	v.led.Note(kind, stall, v.now, net, layer, iter, v.used, v.total, v.availCB, detail, 0)
}

// NoteEviction records an early-eviction capacity reservation in the
// run's decision ledger and metrics: the scheduler is holding SRAM
// capacity for the capacity-critical memory block r (fetch longer
// than compute, §IV-C) instead of letting smaller blocks steal the
// window. Schedulers call it once at each reservation's onset; it is
// a no-op when the run has no ledger or registry attached.
func (v *View) NoteEviction(r MBRef) {
	if v.om != nil {
		v.om.evictions.Inc()
	}
	if v.led == nil {
		return
	}
	h := &v.nets[r.Net].hot[r.Layer]
	v.note(obs.KindEarlyEvict, r.Net, r.Layer, r.Iter, v.stallCause(h.mbBlocks), h.mbCycles)
}

// NotePreemption records a priority preemption in the run's decision
// ledger and metrics: the scheduler is requesting a split of the
// executing compute block r so a higher-priority request's ready work
// can take the PE complex (the serving control plane's cross-request
// preemption). Schedulers call it once per granted RequestSplit made
// for priority reasons; the split itself is still recorded separately
// by the engine (KindCBSplit) when applied. A no-op when the run has
// no ledger or registry attached.
func (v *View) NotePreemption(r CBRef) {
	if v.om != nil {
		v.om.preempts.Inc()
	}
	if v.led == nil {
		return
	}
	var rem arch.Cycles
	if cur, remaining, ok := v.ExecutingCB(); ok && cur == r {
		rem = remaining
	}
	v.note(obs.KindPreempt, r.Net, r.Layer, r.Iter, v.stallCause(0), rem)
}

// NoteLookahead records a committed speculative scheduling decision in
// the run's decision ledger and metrics: the scheduler forked the
// machine state at a contested choice, simulated the alternatives
// horizon cycles ahead, and committed memory block r because its
// branch kept the machine busier by delta cycles. Schedulers call it
// once per committed speculation, after unmuting observability (the
// speculative stepping itself runs under Quiesce and leaves no
// trace). A no-op when the run has no ledger or registry attached.
func (v *View) NoteLookahead(r MBRef, horizon, delta arch.Cycles) {
	if v.om != nil {
		v.om.lookaheads.Inc()
	}
	if v.led == nil {
		return
	}
	// Detail carries the predicted progress delta; the horizon is
	// encoded in the free-form field so both survive the ring.
	v.led.Note(obs.KindLookahead, v.stallCause(0), v.now, r.Net, r.Layer, r.Iter, v.used, v.total, v.availCB, delta, horizon)
}
