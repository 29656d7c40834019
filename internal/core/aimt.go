// Package core implements the paper's contribution: the AI-MT
// hardware sub-layer scheduler. AI-MT overlaps compute- and
// memory-intensive sub-layers from different networks using three
// mechanisms, each independently switchable to reproduce the paper's
// ablation (Fig 14):
//
//   - MB prefetching (§IV-B1): fetch dependency-free memory blocks
//     whenever SRAM capacity allows, regardless of sub-layer
//     boundaries. Candidates are visited round-robin across networks
//     (the paper evaluates prefetching on top of the RR baseline).
//   - CB merging (§IV-B2, Algorithm 2): whenever a memory block is
//     scheduled, claim compute blocks into the CB selected queue until
//     the claimed backlog covers the fetch, and steer MB selection
//     with the AVL_CB counter: while available compute coverage is
//     low, prefer blocks whose compute outlasts their fetch.
//   - Early MB eviction (§IV-C): give capacity-critical memory blocks
//     (fetch longer than compute — FC sub-layers) head-of-line
//     priority, waiting for SRAM space rather than letting small
//     blocks steal it; run the smallest compute blocks first when free
//     space is short; and halt an executing long compute block
//     (CB split) so small compute blocks can recover capacity quickly.
package core

import (
	"aimt/internal/arch"
	"aimt/internal/sim"
	"sort"
)

// AIMT is the AI-MT scheduler. Construct with New; the zero value is
// not usable.
type AIMT struct {
	name  string
	merge bool
	evict bool
	split bool

	// mergeThreshold is the AVL_CB level below which MB selection
	// prefers blocks whose compute is longer than their fetch
	// (Algorithm 2 line 5).
	mergeThreshold arch.Cycles

	// pressureBlocks is the free-block level below which the smallest
	// compute blocks run first (§IV-C: "when the SRAM is short of the
	// free region").
	pressureBlocks int

	// splitMinRemaining is the smallest remaining compute time worth
	// halting for; it amortizes the PE refill penalty.
	splitMinRemaining arch.Cycles

	// avlMode selects the coverage metric steering MB selection.
	// avlLeaky is the paper's Algorithm 2 accounting: AVL_CB as a
	// decaying counter — credited with the corresponding CB at each MB
	// selection, debited by the MB at selection and by finished CBs
	// during stalls. The decay makes the scheduler re-pick
	// coverage-building blocks at a steady pace, which is what keeps
	// compute- and memory-intensive fetches alternating when eviction
	// is not pacing them. avlExact measures the resident unconsumed
	// compute work instead, which eviction's capacity reservation
	// needs (the decaying counter's frequent steering would leak the
	// SRAM windows reservation holds open). avlAuto — the default —
	// follows whether eviction is active for the run.
	avlMode avlMode

	// avlCB is the decaying AVL_CB counter (used unless exactAVL).
	avlCB arch.Cycles

	// stalled notes that the memory engine declined work at the last
	// PickMB, so completed CBs drain AVL_CB (Algorithm 2 line 12).
	stalled bool

	// sq is the CB selected queue: claimed compute blocks in execution
	// order. sqCycles is the total work they represent.
	sq       []sim.CBRef
	sqCycles arch.Cycles

	// rrMB and rrCB rotate candidate scanning across networks for
	// fairness, like the RR baseline the paper builds on.
	rrMB, rrCB int

	// weights, when set, replaces the uniform rotation with weighted
	// credit scheduling: each network accrues credit at its weight
	// while waiting, and candidate scanning starts from the network
	// with the most credit. This gives latency-sensitive tenants a
	// larger service share while still co-executing blocks — unlike
	// PREMA's time multiplexing, priority here costs no overlap.
	weights    []float64
	credits    []float64
	lastAccrue arch.Cycles

	// deadlines, when set, replaces the uniform rotation with
	// earliest-deadline-first ordering (serving SLAs): candidate
	// scanning starts from the network with the nearest absolute
	// deadline, while prefetching, merging and eviction keep working
	// unchanged — deadline priority costs no overlap.
	deadlines []arch.Cycles

	// prios, when set, enables strict priority classes with
	// cross-request preemption (the serving control plane): candidate
	// scanning prefers higher-priority networks, ready compute blocks
	// of a higher class run before lower ones, and a high-priority
	// arrival may halt a low-priority executing block by reusing the
	// CB-split mechanism (the halt/resume path eviction already
	// exercises). Uniform priorities are normalized to nil at
	// SetPreemptPriorities so the control plane is a strict no-op when
	// every class is equal.
	prios []int

	// reserving notes that a capacity-critical memory block is blocked
	// on SRAM space and the scheduler is holding capacity for it:
	// non-critical blocks stop issuing and the smallest compute blocks
	// run first until the window opens (§IV-C, Fig 13b/c).
	reserving bool

	// evictActive caches whether eviction applies to this workload:
	// eviction trades channel idle time for SRAM windows, which only
	// pays when compute is the abundant resource. For memory-bound
	// mixes (total MB cycles exceed total CB cycles) the channel must
	// never idle, so eviction is disabled adaptively. Computed on
	// first use; -1 until then.
	evictActive int

	// scratch buffers reused across picks.
	mbs []sim.MBRef
	cbs []sim.CBRef
}

// Mechanisms selects which AI-MT mechanisms are active.
type Mechanisms struct {
	// Merge enables CB merging on top of MB prefetching.
	Merge bool
	// Evict enables early MB eviction (capacity-critical priority and
	// smallest-CB-first under pressure).
	Evict bool
	// Split enables halting long compute blocks under SRAM pressure;
	// only meaningful with Evict.
	Split bool
}

// Prefetch returns the MB-prefetching-only configuration
// (Fig 14 "AI-MT (Prefetch)").
func Prefetch() Mechanisms { return Mechanisms{} }

// PrefetchMerge returns prefetching plus CB merging
// (Fig 14 "AI-MT (Prefetch+Merge)").
func PrefetchMerge() Mechanisms { return Mechanisms{Merge: true} }

// All returns the full design: prefetching, merging and early MB
// eviction with CB split (Fig 14 "AI-MT (All)").
func All() Mechanisms { return Mechanisms{Merge: true, Evict: true, Split: true} }

// New returns an AI-MT scheduler for the given hardware configuration.
// Thresholds default from the configuration: the merge threshold is
// two FC memory-block durations, eviction pressure is one FC memory
// block of free space, and splits require at least four PE fill times
// of remaining work.
func New(cfg arch.Config, m Mechanisms) *AIMT {
	fcMB := cfg.ReadCyclesPerArray() * arch.Cycles(cfg.NumArrays)
	name := "AI-MT(PF)"
	switch {
	case m.Merge && m.Evict:
		name = "AI-MT(All)"
	case m.Merge:
		name = "AI-MT(PF+Merge)"
	case m.Evict:
		name = "AI-MT(PF+Evict)"
	}
	return &AIMT{
		name:              name,
		merge:             m.Merge,
		evict:             m.Evict,
		evictActive:       -1,
		split:             m.Evict && m.Split,
		mergeThreshold:    2 * fcMB,
		pressureBlocks:    cfg.NumArrays,
		splitMinRemaining: 4 * cfg.FillLatency,
	}
}

// avlMode selects the AVL_CB accounting; see the field comment.
type avlMode int

const (
	avlAuto avlMode = iota
	avlLeaky
	avlExact
)

// SetMergeThreshold overrides the AVL_CB threshold (for sensitivity
// studies). It returns the scheduler for chaining.
func (a *AIMT) SetMergeThreshold(t arch.Cycles) *AIMT {
	a.mergeThreshold = t
	return a
}

// SetPressureBlocks overrides the eviction-pressure level in blocks.
func (a *AIMT) SetPressureBlocks(n int) *AIMT {
	a.pressureBlocks = n
	return a
}

// SetPriorities enables weighted tenant scheduling: weights[i] is
// network i's service weight (missing entries default to 1; nil
// restores uniform rotation). Higher-weight networks are scanned
// first in candidate order, so their blocks issue and execute sooner
// without sacrificing co-execution. It returns the scheduler for
// chaining.
func (a *AIMT) SetPriorities(weights []float64) *AIMT {
	a.weights = weights
	a.credits = nil
	return a
}

// SetDeadlines enables earliest-deadline-first tenant ordering on top
// of the active mechanisms: deadlines[i] is network instance i's
// absolute deadline in cycles (missing or non-positive entries mean no
// deadline and sort last). Unlike a standalone EDF policy, merging and
// eviction continue to steer which blocks overlap — only the tie-break
// between networks changes. It returns the scheduler for chaining.
func (a *AIMT) SetDeadlines(deadlines []arch.Cycles) *AIMT {
	a.deadlines = deadlines
	if deadlines != nil {
		a.name += "+EDF"
	}
	return a
}

// SetPreemptPriorities enables strict priority classes with
// cross-request preemption: prios[i] is network instance i's priority
// (higher is more urgent; missing entries default to 0). Higher
// classes are scanned first, their ready compute blocks run first,
// and an arrival of a strictly higher class may halt a lower class's
// executing compute block via the CB-split mechanism — the halted
// remainder resumes later with the usual PE refill penalty. Nil or
// uniform priorities restore the fair rotation exactly (the control
// plane is a strict no-op when off). It returns the scheduler for
// chaining.
func (a *AIMT) SetPreemptPriorities(prios []int) *AIMT {
	uniform := true
	for _, p := range prios {
		if p != prios[0] {
			uniform = false
			break
		}
	}
	if len(prios) == 0 || uniform {
		a.prios = nil
		return a
	}
	a.prios = prios
	a.name += "+Prio"
	return a
}

func (a *AIMT) prio(net int) int {
	if net < len(a.prios) {
		return a.prios[net]
	}
	return 0
}

func (a *AIMT) deadline(net int) arch.Cycles {
	if net < len(a.deadlines) && a.deadlines[net] > 0 {
		return a.deadlines[net]
	}
	return arch.Cycles(1)<<62 - 1
}

func (a *AIMT) weight(net int) float64 {
	if net < len(a.weights) && a.weights[net] > 0 {
		return a.weights[net]
	}
	return 1
}

// accrueCredits advances every unfinished network's credit to now and
// returns the credit slice.
func (a *AIMT) accrueCredits(v *sim.View) []float64 {
	if a.credits == nil {
		a.credits = make([]float64, v.NumNets())
	}
	dt := float64(v.Now() - a.lastAccrue)
	a.lastAccrue = v.Now()
	if dt > 0 {
		for i := range a.credits {
			if !v.NetFinished(i) {
				a.credits[i] += dt * a.weight(i)
			}
		}
	}
	return a.credits
}

// serviced charges a network for receiving service: its credit resets
// so others catch up.
func (a *AIMT) serviced(net int) {
	if a.credits != nil && net < len(a.credits) {
		a.credits[net] = 0
	}
}

// SetExactAVL forces the coverage metric: true pins the exact
// measurement of resident unconsumed compute work, false pins the
// paper's decaying AVL_CB counter (for the ablation study; the
// default follows eviction).
func (a *AIMT) SetExactAVL(on bool) *AIMT {
	if on {
		a.avlMode = avlExact
	} else {
		a.avlMode = avlLeaky
	}
	return a
}

// coverage returns the AVL_CB value steering MB selection.
func (a *AIMT) coverage(v *sim.View) arch.Cycles {
	mode := a.avlMode
	if mode == avlAuto {
		if a.evictOn(v) {
			mode = avlExact
		} else {
			mode = avlLeaky
		}
	}
	if mode == avlExact {
		return v.AvailableCBCycles()
	}
	return a.avlCB
}

// Name implements sim.Scheduler.
func (a *AIMT) Name() string { return a.name }

// evictOn reports whether eviction applies to this run; see
// evictActive.
func (a *AIMT) evictOn(v *sim.View) bool {
	if !a.evict {
		return false
	}
	if a.evictActive < 0 {
		cb, mb := v.MixTotals()
		if mb > cb {
			a.evictActive = 0
		} else {
			a.evictActive = 1
		}
	}
	return a.evictActive == 1
}

// underPressure reports whether the machine is in capacity-recovery
// mode: a capacity-critical memory block is blocked on SRAM space.
// Only then does eviction run the smallest compute blocks first —
// engaging it whenever free space is merely low would starve long
// compute blocks and idle the PE complex while the channel still
// flows.
func (a *AIMT) underPressure(v *sim.View) bool {
	return a.reserving
}

// PickMB implements Algorithm 2's memory-block selection plus the
// eviction priority of §IV-C.
func (a *AIMT) PickMB(v *sim.View) (sim.MBRef, bool) {
	// Cross-request preemption first: the engine applies a granted
	// split request immediately after this pick returns, so this is
	// the spot where a high-priority arrival can displace a
	// low-priority executing block.
	a.maybePreempt(v)
	if a.ranked() {
		a.mbs = v.MBCandidates(a.mbs[:0])
		a.rotateMBs(v)
	} else {
		a.mbs = v.MBCandidatesFrom(a.mbs[:0], a.rrMB)
	}
	if len(a.mbs) == 0 {
		a.reserving = false
		a.stalled = false
		return sim.MBRef{}, false
	}

	target, reserve, ok := a.chooseTarget(v)
	wasReserving := a.reserving
	a.reserving = !ok && reserve
	a.stalled = !ok
	if !ok {
		// Nothing preferred fits. When reserving capacity for a blocked
		// capacity-critical block, consider halting a long compute
		// block so small ones can free SRAM sooner (Fig 13c).
		if a.reserving {
			if !wasReserving {
				// Attribute the reservation's onset in the decision
				// ledger (no-op unless the run carries one). target is
				// the blocked capacity-critical block.
				v.NoteEviction(target)
			}
			a.maybeSplit(v)
		}
		return sim.MBRef{}, false
	}

	a.rrMB = (target.Net + 1) % v.NumNets()
	mb, cb := v.BlockCycles(target.Net, target.Layer)
	// Algorithm 2 lines 16-17: the selected MB consumes coverage and
	// its corresponding CB becomes available.
	a.avlCB -= mb
	if a.avlCB < 0 {
		a.avlCB = 0
	}
	a.avlCB += cb
	if a.merge {
		a.mergeCBs(v, mb)
	}
	return target, true
}

// ranked reports whether tenant ranking (priority classes, deadlines
// or weights) replaces the uniform round-robin rotation.
func (a *AIMT) ranked() bool {
	return a.prios != nil || a.deadlines != nil || a.weights != nil
}

// rotateMBs reorders the candidate buffer by the active tenant
// ranking, and pushes candidates of networks whose input features
// have not yet arrived to the back: their compute blocks cannot
// start, so their weights would only hog SRAM that runnable networks
// need. The uniform rotation gets the same order, starting at the
// round-robin pointer, from View.MBCandidatesFrom.
func (a *AIMT) rotateMBs(v *sim.View) {
	if len(a.mbs) < 2 {
		return
	}
	if a.prios != nil {
		sort.SliceStable(a.mbs, func(i, j int) bool {
			hi, hj := !v.HostInputDone(a.mbs[i].Net), !v.HostInputDone(a.mbs[j].Net)
			if hi != hj {
				return hj // arrived inputs first
			}
			return a.prio(a.mbs[i].Net) > a.prio(a.mbs[j].Net)
		})
		return
	}
	if a.deadlines != nil {
		sort.SliceStable(a.mbs, func(i, j int) bool {
			hi, hj := !v.HostInputDone(a.mbs[i].Net), !v.HostInputDone(a.mbs[j].Net)
			if hi != hj {
				return hj // arrived inputs first
			}
			return a.deadline(a.mbs[i].Net) < a.deadline(a.mbs[j].Net)
		})
		return
	}
	credits := a.accrueCredits(v)
	sort.SliceStable(a.mbs, func(i, j int) bool {
		hi, hj := !v.HostInputDone(a.mbs[i].Net), !v.HostInputDone(a.mbs[j].Net)
		if hi != hj {
			return hj // arrived inputs first
		}
		return credits[a.mbs[i].Net] > credits[a.mbs[j].Net]
	})
}

// chooseTarget picks the next memory block. The reserve result, valid
// when ok is false, reports that a capacity-critical block exists but
// lacks SRAM space, so the memory engine holds capacity for it instead
// of letting small blocks steal the window (§IV-C).
func (a *AIMT) chooseTarget(v *sim.View) (target sim.MBRef, reserve, ok bool) {
	// Algorithm 2 lines 5-7: while the available compute coverage is
	// low, prefer blocks whose compute outlasts their fetch so the PE
	// complex does not run dry. Coverage is measured exactly from
	// machine state (resident, unconsumed compute work).
	if a.merge && a.coverage(v) < a.mergeThreshold {
		for _, m := range a.mbs {
			if mb, cb := v.BlockCycles(m.Net, m.Layer); cb > mb && v.IsMBIssuable(m) {
				return m, false, true
			}
		}
		// No coverage-building block exists (or fits). Fall through
		// rather than idling the memory engine: an idle channel can
		// never raise the coverage either.
	}
	if a.evictOn(v) {
		// §IV-C: capacity-critical blocks (fetch longer than compute —
		// FC sub-layers) get head-of-line priority. If the first one is
		// blocked on SRAM space, reserve — issuing small blocks now
		// would leak the very window it is waiting for — but only while
		// the PE complex has resident work to chew through; idling the
		// channel with no compute runway just moves the bottleneck.
		for _, m := range a.mbs {
			if !v.MemoryIntensive(m.Net, m.Layer) {
				continue
			}
			if v.IsMBIssuable(m) {
				return m, false, true
			}
			if v.AvailableCBCycles() >= a.mergeThreshold {
				// Reserve for this blocked critical block; return it so
				// the caller can attribute the reservation.
				return m, true, false
			}
			break
		}
	}
	for _, m := range a.mbs {
		if v.IsMBIssuable(m) {
			return m, false, true
		}
	}
	return sim.MBRef{}, false, false
}

// mergeCBs claims compute blocks until the claimed backlog (selected
// queue plus the executing block's remainder) covers the fetch now
// occupying the memory engine (Algorithm 2 lines 18-22, with the
// "already enough to cover" case of Fig 12c).
func (a *AIMT) mergeCBs(v *sim.View, mbCycles arch.Cycles) {
	backlog := a.sqCycles
	if _, rem, ok := v.ExecutingCB(); ok {
		backlog += rem
	}
	for backlog < mbCycles {
		var pick sim.CBRef
		if a.underPressure(v) {
			// Eviction: smallest CB first recovers capacity fastest.
			a.cbs = v.SelectableCBs(a.cbs[:0])
			if len(a.cbs) == 0 {
				return
			}
			pick = a.cbs[0]
			for _, c := range a.cbs[1:] {
				if v.CBCycles(c) < v.CBCycles(pick) {
					pick = c
				}
			}
		} else {
			// Claim fairly across networks, like the candidate queues.
			var ok bool
			if pick, ok = v.FirstSelectableCB(a.rrCB); !ok {
				return
			}
		}
		if err := v.SelectCB(pick); err != nil {
			return
		}
		c := v.CBCycles(pick)
		a.sq = append(a.sq, pick)
		a.sqCycles += c
		backlog += c
	}
}

// maybeSplit halts the executing compute block when eviction with
// split is enabled, the block has substantial work left, and another
// executable compute block exists to run in its place.
func (a *AIMT) maybeSplit(v *sim.View) {
	if !a.split {
		return
	}
	cur, remaining, ok := v.ExecutingCB()
	if !ok || remaining < a.splitMinRemaining {
		return
	}
	a.cbs = v.ReadyCBs(a.cbs[:0])
	for _, c := range a.cbs {
		if (c.Net != cur.Net || c.Layer != cur.Layer) && v.CBCycles(c) < remaining {
			v.RequestSplit()
			return
		}
	}
}

// maybePreempt requests a CB split when a strictly higher-priority
// network has a ready compute block while a lower-priority one
// executes with substantial work left — the serving control plane's
// cross-request preemption, reusing the halt/resume path. The split
// the engine applies is recorded as usual; the preemption decision
// itself is attributed through NotePreemption.
func (a *AIMT) maybePreempt(v *sim.View) {
	if a.prios == nil {
		return
	}
	cur, remaining, ok := v.ExecutingCB()
	if !ok || remaining < a.splitMinRemaining {
		return
	}
	curP := a.prio(cur.Net)
	a.cbs = v.ReadyCBs(a.cbs[:0])
	for _, c := range a.cbs {
		if c.Net != cur.Net && a.prio(c.Net) > curP {
			if v.RequestSplit() {
				v.NotePreemption(cur)
			}
			return
		}
	}
}

// PickCB implements the compute side: the CB selected queue executes
// in order (the engine waits on its head if the weights are still in
// flight); when it is empty, ready compute blocks run directly —
// smallest first under SRAM pressure, round-robin otherwise. With
// priority classes active, the highest-priority ready block runs
// first, falling back to the selected queue's discipline on ties.
func (a *AIMT) PickCB(v *sim.View) (sim.CBRef, bool) {
	if a.prios != nil {
		a.cbs = v.ReadyCBs(a.cbs[:0])
		var pick sim.CBRef
		found := false
		for _, c := range a.cbs {
			if !found || a.prio(c.Net) > a.prio(pick.Net) {
				pick, found = c, true
			}
		}
		if len(a.sq) > 0 && (!found || a.prio(a.sq[0].Net) >= a.prio(pick.Net)) {
			return a.sq[0], true
		}
		if found {
			return pick, true
		}
		return sim.CBRef{}, false
	}
	if len(a.sq) > 0 {
		return a.sq[0], true
	}
	// With the selected queue empty, run ready compute blocks
	// directly; idling the PE until the in-flight fetch tops the queue
	// up would only move its work later. Round-robin is the default.
	pressure := a.underPressure(v)
	if !pressure && a.deadlines == nil && a.weights == nil {
		return v.FirstReadyCB(a.rrCB)
	}
	a.cbs = v.ReadyCBs(a.cbs[:0])
	if len(a.cbs) == 0 {
		return sim.CBRef{}, false
	}
	var pick sim.CBRef
	found := false
	if pressure {
		for _, c := range a.cbs {
			if !found || v.CBCycles(c) < v.CBCycles(pick) {
				pick, found = c, true
			}
		}
		return pick, true
	}
	if a.deadlines != nil {
		for _, c := range a.cbs {
			if !found || a.deadline(c.Net) < a.deadline(pick.Net) {
				pick, found = c, true
			}
		}
		return pick, true
	}
	credits := a.accrueCredits(v)
	for _, c := range a.cbs {
		if !found || credits[c.Net] > credits[pick.Net] {
			pick, found = c, true
		}
	}
	return pick, true
}

// OnMBDone implements sim.Scheduler.
func (a *AIMT) OnMBDone(v *sim.View, r sim.MBRef) {}

// OnCBStart pops the selected queue when its head begins execution,
// advances the compute round-robin pointer, and charges the serviced
// tenant's credit.
func (a *AIMT) OnCBStart(v *sim.View, r sim.CBRef) {
	if len(a.sq) > 0 && a.sq[0] == r {
		// Shift in place rather than reslicing the front: a walking
		// window would force every later append to grow a new backing
		// array, allocating on each merge for the rest of the run.
		a.sq = a.sq[:copy(a.sq, a.sq[1:])]
		a.sqCycles -= v.CBCycles(r)
		if a.sqCycles < 0 {
			a.sqCycles = 0
		}
	}
	a.rrCB = (r.Net + 1) % v.NumNets()
	a.serviced(r.Net)
}

// OnCBDone drains the decaying AVL_CB counter while the memory engine
// is stalled (Algorithm 2 line 12).
func (a *AIMT) OnCBDone(v *sim.View, r sim.CBRef) {
	if a.stalled {
		_, cb := v.BlockCycles(r.Net, r.Layer)
		a.avlCB -= cb
		if a.avlCB < 0 {
			a.avlCB = 0
		}
	}
}

// OnCBSplit releases claims on the halted layer: the engine has
// already rolled back its selection counter, so matching selected-
// queue entries are dropped and their cycles refunded.
func (a *AIMT) OnCBSplit(v *sim.View, r sim.CBRef, remaining arch.Cycles) {
	kept := a.sq[:0]
	for _, c := range a.sq {
		if c.Net == r.Net && c.Layer == r.Layer {
			_, cb := v.BlockCycles(c.Net, c.Layer)
			a.sqCycles -= cb
			continue
		}
		kept = append(kept, c)
	}
	if a.sqCycles < 0 {
		a.sqCycles = 0
	}
	a.sq = kept
}
