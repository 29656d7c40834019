// Package sim is the cycle-level accelerator simulator. It models the
// machine the paper evaluates on: one HBM channel executing memory
// blocks (MBs) serially, one PE-array complex executing compute blocks
// (CBs) serially at sub-layer granularity, a block-granular weight
// SRAM gating prefetch depth, and a host (PCIe) link moving input and
// output features.
//
// Scheduling policy is pluggable through the Scheduler interface; the
// engine owns all state transitions (dependency resolution, SRAM
// occupancy, split/resume) so that every policy is simulated under
// identical machine semantics.
package sim

import (
	"fmt"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/obs"
)

// MBRef identifies one memory block: sub-layer Iter of compiled layer
// Layer of network instance Net.
type MBRef struct {
	Net, Layer, Iter int
}

// CBRef identifies one compute block.
type CBRef struct {
	Net, Layer, Iter int
}

// Scheduler decides which block each engine runs next. The engine
// consults it whenever an engine is idle and state may have changed.
// Implementations must be deterministic functions of the View.
type Scheduler interface {
	// Name labels the policy in results and traces.
	Name() string

	// PickMB returns the next memory block to fetch. Returning ok=false
	// leaves the HBM channel idle until the next event. The returned
	// block must be issuable (IsMBIssuable).
	PickMB(v *View) (MBRef, bool)

	// PickCB returns the compute block the PE complex should run next.
	// If the returned block is not yet executable (its weights are
	// still in flight), the PE complex waits for it — this is how a
	// policy expresses a dependency stall. Returning ok=false leaves
	// the PE complex idle until the next event.
	PickCB(v *View) (CBRef, bool)

	// OnMBDone is invoked when a memory block completes.
	OnMBDone(v *View, r MBRef)

	// OnCBStart is invoked when a compute block begins execution.
	OnCBStart(v *View, r CBRef)

	// OnCBDone is invoked when a compute block completes.
	OnCBDone(v *View, r CBRef)

	// OnCBSplit is invoked after the engine halts an executing compute
	// block (see View.RequestSplit). remaining is the work left,
	// excluding the refill penalty charged at resume.
	OnCBSplit(v *View, r CBRef, remaining arch.Cycles)
}

// NopHooks provides no-op notification methods for schedulers that
// only implement the Pick methods.
type NopHooks struct{}

// OnMBDone implements Scheduler.
func (NopHooks) OnMBDone(*View, MBRef) {}

// OnCBStart implements Scheduler.
func (NopHooks) OnCBStart(*View, CBRef) {}

// OnCBDone implements Scheduler.
func (NopHooks) OnCBDone(*View, CBRef) {}

// OnCBSplit implements Scheduler.
func (NopHooks) OnCBSplit(*View, CBRef, arch.Cycles) {}

// netState tracks one network instance's progress through its
// sub-layer scheduling table.
type netState struct {
	cn *compiler.CompiledNetwork

	// hot is the net's per-layer hot row (see layerHot), shared with
	// every instance of the same compiled table.
	hot []layerHot

	mbIndeg []int // unresolved MB-chain predecessors per layer
	cbIndeg []int // unresolved CB-chain predecessors per layer

	mbIssued   []int // MBs handed to the HBM channel, per layer
	mbDone     []int // MBs fully fetched, per layer
	cbSelected []int // CBs claimed by the scheduler (>= cbDone), per layer
	cbDone     []int // CBs completed, per layer

	// remnant, when positive, is the remaining work of a halted CB: the
	// layer's next CB (iter == cbDone) resumes with remnant plus the PE
	// refill penalty instead of its full CBCycles.
	remnant []arch.Cycles

	// mbFront and cbFront are the net's candidate frontiers: the
	// ascending layer lists the candidate scans iterate instead of
	// visiting every layer (see frontier.go for the membership
	// conditions and the maintenance points).
	mbFront []int
	cbFront []int

	arrival    arch.Cycles
	arrived    bool
	hostInDone bool
	layersLeft int
	finished   bool
	finishAt   arch.Cycles
}

// layerHot is the part of a compiled layer the engine, the frontiers
// and the schedulers read on every event, so the hot path indexes a
// small flat row instead of reading (or copying) the full
// compiler.CompiledLayer record with its name and dependency lists.
// Rows never change during a run, so every instance of one compiled
// table shares its table's rows (see netTemplate). A layer's resident
// SRAM blocks are (mbIssued - cbDone) * mbBlocks, which is why the
// engine needs no block table of its own.
type layerHot struct {
	mbCycles, cbCycles arch.Cycles
	iters, mbBlocks    int
	memIntensive       bool // mbCycles > cbCycles
}

// netTemplate is the starting state every instance of one compiled
// table shares: the table's hot rows, which instances point at
// read-only, and the initial MB/CB indegrees and root MB frontier,
// which each instance copies into its own arena carve. The engine
// builds one per distinct table per run (see Engine.checkTable), so
// a serving stream of thousands of instances over a handful of
// tables fills rows once per table rather than once per instance.
type netTemplate struct {
	hot              []layerHot
	mbIndeg, cbIndeg []int
	mbFront          []int
}

// build fills t from cn, reusing t's storage. The rows are appended
// to t.hot[:0], so a caller may point t.hot at a cap-limited carve
// of other storage to have the rows written there.
func (t *netTemplate) build(cn *compiler.CompiledNetwork) {
	t.hot, t.mbIndeg, t.cbIndeg, t.mbFront = t.hot[:0], t.mbIndeg[:0], t.cbIndeg[:0], t.mbFront[:0]
	for i := range cn.Layers {
		l := &cn.Layers[i]
		t.hot = append(t.hot, layerHot{
			mbCycles:     l.MBCycles,
			cbCycles:     l.CBCycles,
			iters:        l.Iters,
			mbBlocks:     l.MBBlocks,
			memIntensive: l.MemoryIntensive(),
		})
		deps := len(l.Deps)
		t.mbIndeg = append(t.mbIndeg, deps)
		if deps == 0 {
			// Root layers additionally wait for the host input transfer
			// before computing (their weights may be fetched earlier).
			t.cbIndeg = append(t.cbIndeg, 1)
			if l.Iters > 0 {
				t.mbFront = append(t.mbFront, i)
			}
		} else {
			t.cbIndeg = append(t.cbIndeg, deps)
		}
	}
}

// stateArena carves every net's per-layer bookkeeping out of flat,
// grow-only slabs — a struct-of-arrays layout. Each netState's
// slices are fixed-capacity sub-slices of the slabs, so a pooled
// engine re-running a same-shaped workload allocates nothing, and a
// snapshot of the whole machine is two bulk copies (plus per-net
// scalars) instead of a walk over thousands of tiny slices. The
// frontier sub-slices are carved with capacity equal to the net's
// layer count — a frontier can never hold more than one entry per
// layer, so frontAdd's append can never grow past the carve.
type stateArena struct {
	ints   []int         // 8 ints per layer: 6 counters + 2 frontier backings
	cycles []arch.Cycles // 1 per layer: remnant

	// hot holds the rows of instances whose table has no shared
	// template (beyond maxCheckedTables); never mutated mid-run, so
	// it is not captured by snapshots.
	hot []layerHot
}

// reset clears and re-carves the arena for a workload with the given
// total layer count, of which spillLayers belong to instances whose
// hot rows live in the arena, reusing capacity when possible.
func (a *stateArena) reset(totalLayers, spillLayers int) {
	ni, nc := totalLayers*8, totalLayers
	if cap(a.ints) < ni {
		a.ints = make([]int, ni)
	}
	if cap(a.cycles) < nc {
		a.cycles = make([]arch.Cycles, nc)
	}
	if cap(a.hot) < spillLayers {
		a.hot = make([]layerHot, spillLayers)
	}
	a.ints = a.ints[:ni]
	a.cycles = a.cycles[:nc]
	a.hot = a.hot[:spillLayers]
	clear(a.ints)
	clear(a.cycles)
}

// carveInts takes the next n ints from the slab.
func carveInts(slab []int, off *int, n int) []int {
	s := slab[*off : *off+n : *off+n]
	*off += n
	return s
}

// initNetState wires one net's state into the arena slabs (already
// zeroed by reset): it points the net at its template's hot rows and
// copies in the template's dependency counts and root MB frontier.
func initNetState(s *netState, cn *compiler.CompiledNetwork, t *netTemplate, a *stateArena, intOff, layerOff *int) {
	n := len(cn.Layers)
	*s = netState{
		cn:         cn,
		hot:        t.hot,
		mbIndeg:    carveInts(a.ints, intOff, n),
		cbIndeg:    carveInts(a.ints, intOff, n),
		mbIssued:   carveInts(a.ints, intOff, n),
		mbDone:     carveInts(a.ints, intOff, n),
		cbSelected: carveInts(a.ints, intOff, n),
		cbDone:     carveInts(a.ints, intOff, n),
		mbFront:    carveInts(a.ints, intOff, n)[:0],
		cbFront:    carveInts(a.ints, intOff, n)[:0],
		remnant:    a.cycles[*layerOff : *layerOff+n : *layerOff+n],
		layersLeft: n,
		arrived:    true, // the engine clears this for late arrivals
	}
	*layerOff += n
	copy(s.mbIndeg, t.mbIndeg)
	copy(s.cbIndeg, t.cbIndeg)
	s.mbFront = append(s.mbFront, t.mbFront...)
	// cbFront starts empty: no weights are resident before the first
	// MB completes, and root CB chains wait on host input.
}

// newNetState builds a standalone net state with its own slabs —
// used by tests that assemble a View by hand; the engine carves all
// nets out of one shared arena instead.
func newNetState(cn *compiler.CompiledNetwork) *netState {
	t := &netTemplate{}
	t.build(cn)
	a := &stateArena{}
	a.reset(len(cn.Layers), 0)
	s := &netState{}
	var intOff, layerOff int
	initNetState(s, cn, t, a, &intOff, &layerOff)
	return s
}

// View is the scheduler's window onto simulator state. All methods are
// read-only except SelectCB and RequestSplit.
type View struct {
	cfg  arch.Config
	nets []*netState

	// used is the weight SRAM's occupancy in blocks, out of total: the
	// sum over layers of (mbIssued - cbDone) * MBBlocks, raised at MB
	// issue and lowered at CB completion. The paper's block table
	// (sram.Buffer) is modelled only by the invariant checker, which
	// proves the two agree.
	used, total int

	// active holds the indices of arrived, unfinished networks in
	// ascending order — the only nets candidate scans must visit. With
	// open-loop serving streams of many thousands of requests, scanning
	// every instance per pick would make the engine quadratic in the
	// stream length; the active list keeps each scan proportional to
	// the in-flight population.
	active []int

	// cbNets is the ascending list of active nets whose CB frontier is
	// non-empty — the only nets that can contribute a ready or
	// selectable compute block. A serving stream keeps several nets
	// in flight but few of them hold resident compute work at any
	// pick, so the CB-side queries walk this list, not active.
	// Maintained by cbFrontAdd/cbFrontRemove (see frontier.go).
	cbNets []int

	// outstanding is the incremental Σ(mbIssued - cbDone) over all
	// nets; mbRemaining counts memory blocks not yet issued anywhere.
	outstanding int
	mbRemaining int

	// availCB is the incrementally maintained AVL_CB total: resident,
	// unconsumed compute work on unlocked layers, updated at every
	// state transition that can move it (see frontier.go). Unarrived
	// nets contribute zero by construction (no MB has completed), so
	// the counter needs no arrival handling.
	availCB arch.Cycles

	// cbTotal and mbTotal cache MixTotals, which is static for a run
	// but may be queried per pick by schedulers.
	cbTotal, mbTotal arch.Cycles

	now arch.Cycles

	// log and om are the run's observability hooks: the run-local
	// decision log folded into Options.Ledger and the metric state
	// flushed into Options.Metrics at every event-loop return. Both
	// are nil unless the run opted in, and every emission site guards
	// on that, so the disabled path costs nothing.
	log *obs.Log
	om  *simObs

	// HBM channel occupancy.
	memBusy bool
	curMB   MBRef
	memEnd  arch.Cycles

	// PE complex occupancy.
	peBusy    bool
	curCB     CBRef
	cbStart   arch.Cycles
	peEnd     arch.Cycles
	curCBWork arch.Cycles // total cycles assigned to the executing CB

	splitRequested bool
}

// Now returns the current simulation time in cycles.
func (v *View) Now() arch.Cycles { return v.now }

// Config returns the hardware configuration being simulated.
func (v *View) Config() arch.Config { return v.cfg }

// NumNets returns the number of co-located network instances.
func (v *View) NumNets() int { return len(v.nets) }

// ActiveNets returns the indices of arrived, unfinished networks in
// ascending order. The slice is the engine's own index — callers must
// treat it as read-only and must not retain it across events.
func (v *View) ActiveNets() []int { return v.active }

// activeAdd inserts net into the sorted active list.
func (v *View) activeAdd(net int) {
	i := len(v.active)
	for i > 0 && v.active[i-1] > net {
		i--
	}
	v.active = append(v.active, 0)
	copy(v.active[i+1:], v.active[i:])
	v.active[i] = net
}

// activeRemove deletes net from the active list.
func (v *View) activeRemove(net int) {
	for i, n := range v.active {
		if n == net {
			v.active = append(v.active[:i], v.active[i+1:]...)
			return
		}
	}
}

// NumLayers returns the layer count of network instance net.
func (v *View) NumLayers(net int) int { return len(v.nets[net].cn.Layers) }

// LayerIters returns the sub-layer count of (net, layer).
func (v *View) LayerIters(net, layer int) int { return v.nets[net].hot[layer].iters }

// BlockCycles returns the full HBM occupancy of one memory block and
// the full PE occupancy of one compute block of (net, layer), ignoring
// any halted remainder (see CBCycles).
func (v *View) BlockCycles(net, layer int) (mb, cb arch.Cycles) {
	h := &v.nets[net].hot[layer]
	return h.mbCycles, h.cbCycles
}

// MemoryIntensive reports whether (net, layer)'s memory blocks take
// longer than its compute blocks — the capacity-critical class early
// MB eviction keys on.
func (v *View) MemoryIntensive(net, layer int) bool { return v.nets[net].hot[layer].memIntensive }

// NetFinished reports whether network instance net has completed.
func (v *View) NetFinished(net int) bool { return v.nets[net].finished }

// HostInputDone reports whether network instance net's input features
// have arrived over the host link; until then none of its compute
// blocks can start.
func (v *View) HostInputDone(net int) bool { return v.nets[net].hostInDone }

// MixTotals returns the workload's total compute-block and
// memory-block cycles — the static load balance schedulers may use to
// adapt policy (a memory-bound mix must never idle the HBM channel).
// The totals are computed once at Run start; this is a cached read.
func (v *View) MixTotals() (cb, mb arch.Cycles) {
	return v.cbTotal, v.mbTotal
}

// FreeBlocks returns the number of free weight-SRAM blocks.
func (v *View) FreeBlocks() int { return v.total - v.used }

// TotalBlocks returns the weight SRAM's capacity in blocks.
func (v *View) TotalBlocks() int { return v.total }

// MBCycles returns the HBM occupancy of the referenced memory block.
func (v *View) MBCycles(r MBRef) arch.Cycles { return v.nets[r.Net].hot[r.Layer].mbCycles }

// MBBlocks returns the SRAM blocks the referenced MB allocates.
func (v *View) MBBlocks(r MBRef) int { return v.nets[r.Net].hot[r.Layer].mbBlocks }

// CBCycles returns the PE occupancy of the referenced compute block,
// accounting for a halted remainder plus refill penalty when the block
// is a resume.
func (v *View) CBCycles(r CBRef) arch.Cycles {
	s := v.nets[r.Net]
	if r.Iter == s.cbDone[r.Layer] && s.remnant[r.Layer] > 0 {
		return s.remnant[r.Layer] + v.cfg.FillLatency
	}
	return s.hot[r.Layer].cbCycles
}

// IsMBIssuable reports whether the referenced MB may be handed to the
// HBM channel right now: its network has arrived, its layer's MB
// chain is unlocked, it is the layer's next MB, and the SRAM has room
// for its blocks.
func (v *View) IsMBIssuable(r MBRef) bool {
	s := v.nets[r.Net]
	h := &s.hot[r.Layer]
	return s.arrived &&
		s.mbIndeg[r.Layer] == 0 &&
		r.Iter == s.mbIssued[r.Layer] &&
		r.Iter < h.iters &&
		v.total-v.used >= h.mbBlocks
}

// IsCBExecutable reports whether the referenced CB can start now: its
// layer's CB chain is unlocked, it is the layer's next CB, and its
// weights are resident.
func (v *View) IsCBExecutable(r CBRef) bool {
	s := v.nets[r.Net]
	return s.arrived &&
		s.cbIndeg[r.Layer] == 0 &&
		r.Iter == s.cbDone[r.Layer] &&
		r.Iter < s.hot[r.Layer].iters &&
		s.mbDone[r.Layer] > r.Iter
}

// MBCandidates appends to out one entry per (net, layer) whose next
// memory block is unlocked (dependency-free), in (net, layer) order.
// Capacity is not checked — use IsMBIssuable or MBBlocks. The engine
// maintains the per-net frontiers incrementally, so the cost is the
// size of the result, not the layer count.
func (v *View) MBCandidates(out []MBRef) []MBRef {
	for _, ni := range v.active {
		out = v.nets[ni].appendMBs(out, ni)
	}
	return out
}

// MBCandidatesFrom appends MBCandidates to out in AI-MT's rotation
// order: first the nets whose host input is done, starting at the
// first active net >= from and wrapping around, then the nets still
// waiting for their input in the same order (their compute cannot
// start, so their weights would only hog SRAM that runnable nets
// need). Within a net, layers stay ascending. The order is built in
// one walk over the active list, plus a second only when a waiting
// net holds candidates.
func (v *View) MBCandidatesFrom(out []MBRef, from int) []MBRef {
	k := 0
	for k < len(v.active) && v.active[k] < from {
		k++
	}
	out, w1 := v.appendMBsOf(out, v.active[k:], true)
	out, w2 := v.appendMBsOf(out, v.active[:k], true)
	if w1 || w2 {
		out, _ = v.appendMBsOf(out, v.active[k:], false)
		out, _ = v.appendMBsOf(out, v.active[:k], false)
	}
	return out
}

// appendMBsOf appends the MB candidates of the nets in list whose
// host-input state equals inputDone, and reports whether it skipped a
// net with candidates in the other state.
func (v *View) appendMBsOf(out []MBRef, list []int, inputDone bool) ([]MBRef, bool) {
	skipped := false
	for _, ni := range list {
		s := v.nets[ni]
		if len(s.mbFront) == 0 {
			continue
		}
		if s.hostInDone != inputDone {
			skipped = true
			continue
		}
		out = s.appendMBs(out, ni)
	}
	return out, skipped
}

// appendMBs appends the next memory block of every layer in s's MB
// frontier; s is network instance net.
func (s *netState) appendMBs(out []MBRef, net int) []MBRef {
	for _, li := range s.mbFront {
		out = append(out, MBRef{Net: net, Layer: li, Iter: s.mbIssued[li]})
	}
	return out
}

// ReadyCBs appends to out one entry per (net, layer) whose next
// compute block is executable right now (weights resident, chain
// unlocked), in (net, layer) order.
func (v *View) ReadyCBs(out []CBRef) []CBRef {
	for _, ni := range v.cbNets {
		s := v.nets[ni]
		for _, li := range s.cbFront {
			// cbFront membership already implies cbIndeg == 0 and
			// mbDone > cbDone; ready additionally means no claim is
			// pending ahead of execution.
			if s.cbSelected[li] == s.cbDone[li] {
				out = append(out, CBRef{Net: ni, Layer: li, Iter: s.cbDone[li]})
			}
		}
	}
	return out
}

// FirstReadyCB returns the first ReadyCBs entry whose net is >= from,
// or else the first entry (round-robin across networks); ok is false
// when no compute block is ready. It walks the candidate nets in
// place and copies nothing.
func (v *View) FirstReadyCB(from int) (r CBRef, ok bool) {
	for _, ni := range v.cbNets {
		if ok && ni < from {
			continue // a wrap-around fallback is already held
		}
		s := v.nets[ni]
		for _, li := range s.cbFront {
			if s.cbSelected[li] == s.cbDone[li] {
				if ni >= from {
					return CBRef{Net: ni, Layer: li, Iter: s.cbDone[li]}, true
				}
				r, ok = CBRef{Net: ni, Layer: li, Iter: s.cbDone[li]}, true
				break
			}
		}
	}
	return r, ok
}

// SelectableCBs appends to out the compute blocks a scheduler may
// claim ahead of execution (the paper's CB candidate queue for
// merging): CBs whose layer is unlocked and whose weights are already
// resident, beyond those already selected — the blocks that can
// overlap an in-flight fetch. Several consecutive iterations of one
// layer may appear.
func (v *View) SelectableCBs(out []CBRef) []CBRef {
	for _, ni := range v.cbNets {
		s := v.nets[ni]
		for _, li := range s.cbFront {
			for it := s.cbSelected[li]; it < s.mbDone[li]; it++ {
				out = append(out, CBRef{Net: ni, Layer: li, Iter: it})
			}
		}
	}
	return out
}

// FirstSelectableCB returns the first SelectableCBs entry whose net is
// >= from, or else the first entry; ok is false when nothing is
// selectable. Like FirstReadyCB it walks in place.
func (v *View) FirstSelectableCB(from int) (r CBRef, ok bool) {
	for _, ni := range v.cbNets {
		if ok && ni < from {
			continue
		}
		s := v.nets[ni]
		for _, li := range s.cbFront {
			if s.cbSelected[li] < s.mbDone[li] {
				if ni >= from {
					return CBRef{Net: ni, Layer: li, Iter: s.cbSelected[li]}, true
				}
				r, ok = CBRef{Net: ni, Layer: li, Iter: s.cbSelected[li]}, true
				break
			}
		}
	}
	return r, ok
}

// AvailableCBCycles returns the total PE work that is available to
// overlap right now: for every unlocked layer, the compute blocks
// whose weights are resident but not yet consumed — the paper's
// AVL_CB, computed exactly from machine state. The engine maintains
// the total incrementally, so this is an O(1) read.
func (v *View) AvailableCBCycles() arch.Cycles { return v.availCB }

// SelectCB claims a compute block ahead of execution (AI-MT's CB
// merging). Claims must be made in iteration order per layer.
func (v *View) SelectCB(r CBRef) error {
	s := v.nets[r.Net]
	if s.cbIndeg[r.Layer] != 0 {
		return fmt.Errorf("sim: SelectCB %+v: layer locked", r)
	}
	if r.Iter != s.cbSelected[r.Layer] {
		return fmt.Errorf("sim: SelectCB %+v: expected iter %d", r, s.cbSelected[r.Layer])
	}
	if r.Iter >= s.mbDone[r.Layer] {
		return fmt.Errorf("sim: SelectCB %+v: weights not resident", r)
	}
	s.cbSelected[r.Layer]++
	if v.om != nil {
		v.om.counts[cMerges]++
	}
	if v.log != nil {
		v.note(obs.SlotCBMerge, r.Net, r.Layer, r.Iter, v.stallCause(0), v.CBCycles(r))
	}
	return nil
}

// ExecutingCB returns the compute block currently on the PE complex
// and its remaining cycles.
func (v *View) ExecutingCB() (CBRef, arch.Cycles, bool) {
	if !v.peBusy {
		return CBRef{}, 0, false
	}
	return v.curCB, v.peEnd - v.now, true
}

// OutstandingMBs returns the number of memory blocks issued whose
// compute blocks have not completed — the quantity a double-buffering
// baseline bounds at two. Maintained incrementally by the engine.
func (v *View) OutstandingMBs() int { return v.outstanding }

// HasMBWork reports whether any memory block remains to be issued
// (whether or not currently unlocked or fitting in SRAM). Maintained
// incrementally by the engine.
func (v *View) HasMBWork() bool { return v.mbRemaining > 0 }

// RequestSplit halts the executing compute block (the paper's CB
// split): the executed portion is kept, the remainder returns to
// candidacy with a PE refill penalty, and any ahead-of-execution
// claims on that layer are released. It returns false when there is
// nothing to split (PE idle or the block just started). The engine
// invokes OnCBSplit on the scheduler after a successful split.
func (v *View) RequestSplit() bool {
	if !v.peBusy || v.now <= v.cbStart {
		return false
	}
	v.splitRequested = true
	return true
}
