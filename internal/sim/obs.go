package sim

import (
	"strconv"

	"aimt/internal/arch"
	"aimt/internal/hdr"
	"aimt/internal/obs"
)

// simObs is the engine's view of the run's metrics registry. While
// the event loop runs it writes nothing shared: counters accumulate in
// plain run-local integers, gauges keep the last value the engine set,
// in-flight classes keep per-class deltas and the block sizes fill
// run-local histograms. flush publishes all of it into the registry
// in one step whenever the event loop returns, so observing a run
// costs O(loop returns), not O(events). A nil *simObs (no
// Options.Metrics) disables metric emission entirely; the decision
// log is gated separately by View.log.
type simObs struct {
	// Lifetime counters: the registry's handles and the run-local
	// counts flush adds to them. With several runs sharing one
	// registry (a parallel sweep, a multi-chip cluster), counters
	// aggregate across runs; gauges reflect the most recent flush.
	counters [numCounters]*obs.Counter
	counts   [numCounters]int64

	// Live machine state: the registry's handles, the values last set
	// in this loop call and which of them were set. The utilization
	// gauges keep the busy total and cycle of the last completion and
	// divide at flush.
	gauges         [numGauges]*obs.Gauge
	values         [numGauges]int64
	set            uint16 // bit g: gauge g was written since the last flush
	memBusy, memAt arch.Cycles
	peBusy, peAt   arch.Cycles

	// Block-size distributions: the registry's, and the run-local ones
	// the engine records into until the next flush.
	mbHist, cbHist *obs.Histogram
	mbRun, cbRun   hdr.Histogram

	// With Options.NetClasses set, classOf maps each net to its class
	// (-1 for an unlabeled net), classGauge holds each class's
	// in-flight gauge and classDelta the in-flight change since the
	// last flush.
	classOf    []int32
	classNames []string
	classGauge []*obs.Gauge
	classDelta []int64
}

// Counter slots, named by counterNames.
const (
	cPrefetches = iota // MBs issued to the HBM channel
	cMerges            // CBs claimed ahead of execution
	cEvictions         // early-eviction capacity reservations
	cSplits            // halted compute blocks
	cPreempts          // priority preemption split requests
	cLookaheads        // committed speculative lookahead decisions
	cMBDone
	cCBDone
	cNetsDone
	cMemBusy // busy cycles per engine
	cPEBusy
	cHostBusy
	numCounters
)

var counterNames = [numCounters]string{
	"aimt_sim_mb_prefetch_total", "aimt_sim_cb_merge_total", "aimt_sim_evictions_total",
	"aimt_sim_cb_splits_total", "aimt_sim_preempt_total", "aimt_sim_lookahead_total",
	"aimt_sim_mb_completed_total", "aimt_sim_cb_completed_total", "aimt_sim_nets_finished_total",
	"aimt_sim_mem_busy_cycles_total", "aimt_sim_pe_busy_cycles_total", "aimt_sim_host_busy_cycles_total",
}

// Gauge slots, named by gaugeNames. The utilization gauges are set
// from memBusy/memAt and peBusy/peAt rather than values.
const (
	gNow = iota
	gActiveNets
	gSRAMUsed
	gSRAMTotal
	gSRAMPeak
	gAvailCB
	gHostQ
	gMemUtil
	gPEUtil
	numGauges
)

var gaugeNames = [numGauges]string{
	"aimt_sim_now_cycles", "aimt_sim_active_nets", "aimt_sim_sram_used_blocks",
	"aimt_sim_sram_total_blocks", "aimt_sim_sram_peak_blocks", "aimt_sim_avail_cb_cycles",
	"aimt_sim_host_queue_depth", "aimt_sim_mem_util", "aimt_sim_pe_util",
}

// reset resolves o's handles against reg for a run of numNets nets
// labelled by classes, keeping the run-local histograms' and class
// tables' storage.
func (o *simObs) reset(reg *obs.Registry, classes []string, numNets int) {
	mbRun, cbRun := o.mbRun, o.cbRun
	mbRun.Reset()
	cbRun.Reset()
	*o = simObs{
		mbHist: reg.Histogram("aimt_sim_mb_cycles"),
		cbHist: reg.Histogram("aimt_sim_cb_cycles"),
		mbRun:  mbRun, cbRun: cbRun,
		classOf: o.classOf[:0], classNames: o.classNames[:0],
		classGauge: o.classGauge[:0], classDelta: o.classDelta[:0],
	}
	for i, name := range counterNames {
		o.counters[i] = reg.Counter(name)
	}
	for i, name := range gaugeNames {
		o.gauges[i] = reg.Gauge(name)
	}
	if len(classes) == 0 {
		return
	}
	// Nets of one class share its name, so a short scan of the
	// distinct names (usually a handful) resolves each net; the
	// registry is asked once per class.
	for i := 0; i < numNets; i++ {
		c := int32(-1)
		if i < len(classes) {
			c = o.classIndex(reg, classes[i])
		}
		o.classOf = append(o.classOf, c)
	}
}

// classIndex returns the class slot of name, resolving its in-flight
// gauge on first sight.
func (o *simObs) classIndex(reg *obs.Registry, name string) int32 {
	for c, n := range o.classNames {
		if n == name {
			return int32(c)
		}
	}
	o.classNames = append(o.classNames, name)
	o.classGauge = append(o.classGauge, reg.Gauge("aimt_sim_inflight{class="+strconv.Quote(name)+"}"))
	o.classDelta = append(o.classDelta, 0)
	return int32(len(o.classNames) - 1)
}

// drop releases every registry handle and class name, keeping the
// storage reset reuses.
func (o *simObs) drop() {
	clear(o.classNames)
	clear(o.classGauge)
	*o = simObs{
		mbRun: o.mbRun, cbRun: o.cbRun,
		classOf: o.classOf[:0], classNames: o.classNames[:0],
		classGauge: o.classGauge[:0], classDelta: o.classDelta[:0],
	}
}

// setGauge records gauge g's latest value for the next flush.
func (o *simObs) setGauge(g int, v int) {
	o.values[g] = int64(v)
	o.set |= 1 << g
}

// flush publishes everything accumulated since the last flush into
// the registry and empties the run-local state: counts are added,
// gauges written since the last flush are set to their latest value,
// class deltas are added to the in-flight gauges and the block-size
// histograms are merged.
func (o *simObs) flush() {
	for i, n := range o.counts {
		if n != 0 {
			o.counters[i].Add(n)
			o.counts[i] = 0
		}
	}
	for g := 0; g < numGauges; g++ {
		if o.set&(1<<g) == 0 {
			continue
		}
		switch g {
		case gMemUtil:
			o.gauges[g].Set(ratio(o.memBusy, o.memAt))
		case gPEUtil:
			o.gauges[g].Set(ratio(o.peBusy, o.peAt))
		default:
			o.gauges[g].Set(float64(o.values[g]))
		}
	}
	o.set = 0
	for c, d := range o.classDelta {
		if d != 0 {
			o.classGauge[c].Add(float64(d))
			o.classDelta[c] = 0
		}
	}
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
	o.setGauge(gActiveNets, active)
	if net < len(o.classOf) {
		if c := o.classOf[net]; c >= 0 {
			o.classDelta[c]++
		}
	}
}

// finish notes a network completing.
func (o *simObs) finish(net, active int) {
	o.counts[cNetsDone]++
	o.setGauge(gActiveNets, active)
	if net < len(o.classOf) {
		if c := o.classOf[net]; c >= 0 {
			o.classDelta[c]--
		}
	}
}

// stallCause attributes the machine's binding resource at a decision:
// pe-bound when the weight SRAM cannot take need more blocks (the
// channel waits on compute to consume weights), hbm-bound when no
// resident unconsumed compute exists (the PE complex waits on
// memory), none otherwise. need <= 0 asks only whether SRAM is
// completely full.
func (v *View) stallCause(need int) obs.StallSlot {
	if free := v.FreeBlocks(); free == 0 || free < need {
		return obs.SlotPE
	}
	if v.availCB == 0 {
		return obs.SlotHBM
	}
	return obs.SlotNone
}

// note logs one decision for the run's ledger. Callers must have
// checked v.log != nil; stall usually comes from stallCause (splits
// pass SlotPE directly — a split is by construction a
// capacity-recovery decision).
func (v *View) note(kind obs.KindSlot, net, layer, iter int, stall obs.StallSlot, detail arch.Cycles) {
	v.log.Note(kind, stall, v.now, net, layer, iter, v.used, v.availCB, detail, 0)
}

// NoteEviction records an early-eviction capacity reservation in the
// run's decision ledger and metrics: the scheduler is holding SRAM
// capacity for the capacity-critical memory block r (fetch longer
// than compute, §IV-C) instead of letting smaller blocks steal the
// window. Schedulers call it once at each reservation's onset; it is
// a no-op when the run has no ledger or registry attached.
func (v *View) NoteEviction(r MBRef) {
	if v.om != nil {
		v.om.counts[cEvictions]++
	}
	if v.log == nil {
		return
	}
	h := &v.nets[r.Net].hot[r.Layer]
	v.note(obs.SlotEarlyEvict, r.Net, r.Layer, r.Iter, v.stallCause(h.mbBlocks), h.mbCycles)
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
		v.om.counts[cPreempts]++
	}
	if v.log == nil {
		return
	}
	var rem arch.Cycles
	if cur, remaining, ok := v.ExecutingCB(); ok && cur == r {
		rem = remaining
	}
	v.note(obs.SlotPreempt, r.Net, r.Layer, r.Iter, v.stallCause(0), rem)
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
		v.om.counts[cLookaheads]++
	}
	if v.log == nil {
		return
	}
	// Detail carries the predicted progress delta; the horizon is
	// encoded in the free-form field so both survive the ring.
	v.log.Note(obs.SlotLookahead, v.stallCause(0), v.now, r.Net, r.Layer, r.Iter, v.used, v.availCB, delta, horizon)
}
