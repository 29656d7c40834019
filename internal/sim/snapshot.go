package sim

import (
	"errors"
	"fmt"

	"aimt/internal/arch"
)

// Snapshot is a point-in-time copy of one engine's mutable machine
// state. Because the per-layer bookkeeping lives in flat arena slabs
// (see stateArena), capturing it is two bulk copies plus a handful of
// per-net scalars — O(state), with no per-slice walking — cheap enough
// to take at every contested scheduling decision.
//
// A snapshot is bound to the engine and run it was taken from:
// restoring it into another engine, or after the engine was
// re-initialized for a new workload, is an error. The same Snapshot
// value can be reused across many Snapshot calls; its backing arrays
// are recycled.
type Snapshot struct {
	owner *Engine
	runID uint64

	// Arena slabs: counters, frontier backings, remnants. The hot rows
	// never change during a run and are not captured.
	ints   []int
	cycles []arch.Cycles

	nets   []netSnap
	active []int

	// Host link and pending-arrival state.
	hostQ        []hostXfer
	hostHead     int
	hostBusy     bool
	hostEnd      arch.Cycles
	curHost      hostXfer
	arrivalOrder []int
	nextArrival  int

	// View scalars. used is the engine's SRAM occupancy counter.
	used           int
	outstanding    int
	mbRemaining    int
	availCB        arch.Cycles
	now            arch.Cycles
	memBusy        bool
	curMB          MBRef
	memEnd         arch.Cycles
	peBusy         bool
	curCB          CBRef
	cbStart        arch.Cycles
	peEnd          arch.Cycles
	curCBWork      arch.Cycles
	splitRequested bool

	// Result scalars plus copies of the mutable per-net columns.
	// NetNames never changes mid-run and is not captured.
	res       Result
	resArrive []arch.Cycles
	resFinish []arch.Cycles

	// Invariant-checker shadow state, captured only when the run
	// checks invariants, so a restored run keeps validating. chkLayers
	// carries the layers' block chains; chkNext and chkFree the
	// checker's block table and free list. Its list of nets holding
	// blocks is derived from the layers and rebuilt on restore.
	chkValid         bool
	chkSnap          checkerSnap
	chkLayers        []layerShadow
	chkHostIn        []bool
	chkNext, chkFree []int32

	// Opaque scheduler decision state (StatefulScheduler).
	schedState any
}

// checkerSnap holds the checker's scalar shadow state.
type checkerSnap struct {
	now, memFree, peFree         arch.Cycles
	memInFlight, peInFlight      bool
	mbCount, cbCount, splitCount int
}

// netSnap holds one net's scalar state and frontier lengths. The
// frontier contents live in the ints slab; only the lengths vary.
type netSnap struct {
	arrival, finishAt      arch.Cycles
	mbFrontLen, cbFrontLen int
	layersLeft             int
	arrived                bool
	hostInDone             bool
	finished               bool
}

// ErrSnapshot wraps every snapshot/restore misuse error.
var ErrSnapshot = errors.New("sim: invalid snapshot")

// Snapshot captures the engine's complete mutable state into dst and
// returns it. Pass nil to allocate a fresh Snapshot; pass a previous
// one to reuse its storage (the steady-state speculative path does
// this and allocates nothing).
func (e *Engine) Snapshot(dst *Snapshot) *Snapshot {
	if dst == nil {
		dst = new(Snapshot)
	}
	v := e.v
	dst.owner = e
	dst.runID = e.runID

	dst.ints = append(dst.ints[:0], e.arena.ints...)
	dst.cycles = append(dst.cycles[:0], e.arena.cycles...)

	dst.nets = dst.nets[:0]
	for _, s := range v.nets {
		dst.nets = append(dst.nets, netSnap{
			arrival:    s.arrival,
			finishAt:   s.finishAt,
			mbFrontLen: len(s.mbFront),
			cbFrontLen: len(s.cbFront),
			layersLeft: s.layersLeft,
			arrived:    s.arrived,
			hostInDone: s.hostInDone,
			finished:   s.finished,
		})
	}
	dst.active = append(dst.active[:0], v.active...)

	dst.hostQ = append(dst.hostQ[:0], e.hostQ...)
	dst.hostHead = e.hostHead
	dst.hostBusy = e.hostBusy
	dst.hostEnd = e.hostEnd
	dst.curHost = e.curHost
	dst.arrivalOrder = append(dst.arrivalOrder[:0], e.arrivalOrder...)
	dst.nextArrival = e.nextArrival

	dst.used = v.used
	dst.outstanding = v.outstanding
	dst.mbRemaining = v.mbRemaining
	dst.availCB = v.availCB
	dst.now = v.now
	dst.memBusy = v.memBusy
	dst.curMB = v.curMB
	dst.memEnd = v.memEnd
	dst.peBusy = v.peBusy
	dst.curCB = v.curCB
	dst.cbStart = v.cbStart
	dst.peEnd = v.peEnd
	dst.curCBWork = v.curCBWork
	dst.splitRequested = v.splitRequested

	dst.res = e.res
	dst.res.NetNames = nil // immutable mid-run; shared, not captured
	dst.res.NetArrive = nil
	dst.res.NetFinish = nil
	dst.resArrive = append(dst.resArrive[:0], e.res.NetArrive...)
	dst.resFinish = append(dst.resFinish[:0], e.res.NetFinish...)

	dst.chkValid = e.chk != nil
	if e.chk != nil {
		c := e.chk
		dst.chkSnap = checkerSnap{
			now: c.now, memFree: c.memFree, peFree: c.peFree,
			memInFlight: c.memInFlight, peInFlight: c.peInFlight,
			mbCount: c.mbCount, cbCount: c.cbCount, splitCount: c.splitCount,
		}
		dst.chkLayers = append(dst.chkLayers[:0], c.layerSlab...)
		dst.chkNext, dst.chkFree = c.buf.SaveState(dst.chkNext, dst.chkFree)
		dst.chkHostIn = dst.chkHostIn[:0]
		for i := range c.nets {
			dst.chkHostIn = append(dst.chkHostIn, c.nets[i].hostInDone)
		}
	}

	if ss, ok := e.sch.(StatefulScheduler); ok {
		dst.schedState = ss.SaveState(dst.schedState)
	}
	return dst
}

// Restore rewinds the engine to the state captured in s. The snapshot
// must have been taken from this engine during the current run.
// Afterwards the engine behaves exactly as it did at capture time:
// stepping it replays the identical schedule (given the scheduler's
// state was captured too — see StatefulScheduler).
func (e *Engine) Restore(s *Snapshot) error {
	if s == nil || s.owner != e || s.runID != e.runID {
		return fmt.Errorf("%w: snapshot does not belong to this engine run", ErrSnapshot)
	}
	if len(s.ints) != len(e.arena.ints) || len(s.cycles) != len(e.arena.cycles) ||
		len(s.nets) != len(e.v.nets) {
		return fmt.Errorf("%w: state shape changed since capture", ErrSnapshot)
	}
	v := e.v

	copy(e.arena.ints, s.ints)
	copy(e.arena.cycles, s.cycles)

	for i, sn := range s.nets {
		st := v.nets[i]
		st.arrival = sn.arrival
		st.finishAt = sn.finishAt
		// The frontier sub-slices share the ints slab just restored;
		// only their lengths need rewinding (capacity is fixed at the
		// net's layer count, so the reslice is always in range).
		st.mbFront = st.mbFront[:sn.mbFrontLen]
		st.cbFront = st.cbFront[:sn.cbFrontLen]
		st.layersLeft = sn.layersLeft
		st.arrived = sn.arrived
		st.hostInDone = sn.hostInDone
		st.finished = sn.finished
	}
	v.active = append(v.active[:0], s.active...)
	// The CB-frontier net index is derived state: rebuild it from the
	// restored frontiers rather than capturing it.
	v.cbNets = v.cbNets[:0]
	for _, ni := range v.active {
		if len(v.nets[ni].cbFront) > 0 {
			v.cbNets = append(v.cbNets, ni)
		}
	}

	e.hostQ = append(e.hostQ[:0], s.hostQ...)
	e.hostHead = s.hostHead
	e.hostBusy = s.hostBusy
	e.hostEnd = s.hostEnd
	e.curHost = s.curHost
	e.arrivalOrder = append(e.arrivalOrder[:0], s.arrivalOrder...)
	e.nextArrival = s.nextArrival

	v.used = s.used
	v.outstanding = s.outstanding
	v.mbRemaining = s.mbRemaining
	v.availCB = s.availCB
	v.now = s.now
	v.memBusy = s.memBusy
	v.curMB = s.curMB
	v.memEnd = s.memEnd
	v.peBusy = s.peBusy
	v.curCB = s.curCB
	v.cbStart = s.cbStart
	v.peEnd = s.peEnd
	v.curCBWork = s.curCBWork
	v.splitRequested = s.splitRequested

	names, arrive, finish := e.res.NetNames, e.res.NetArrive, e.res.NetFinish
	e.res = s.res
	e.res.NetNames = names
	e.res.NetArrive = arrive
	e.res.NetFinish = finish
	copy(e.res.NetArrive, s.resArrive)
	copy(e.res.NetFinish, s.resFinish)

	if e.chk != nil && s.chkValid {
		c := e.chk
		c.now = s.chkSnap.now
		c.memFree = s.chkSnap.memFree
		c.peFree = s.chkSnap.peFree
		c.memInFlight = s.chkSnap.memInFlight
		c.peInFlight = s.chkSnap.peInFlight
		c.mbCount = s.chkSnap.mbCount
		c.cbCount = s.chkSnap.cbCount
		c.splitCount = s.chkSnap.splitCount
		copy(c.layerSlab, s.chkLayers)
		c.buf.RestoreState(s.chkNext, s.chkFree)
		for i := range c.nets {
			c.nets[i].hostInDone = s.chkHostIn[i]
		}
		c.rebuildHolding()
	}

	if ss, ok := e.sch.(StatefulScheduler); ok {
		ss.RestoreState(s.schedState)
	}
	return nil
}
