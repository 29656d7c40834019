package sim

import (
	"errors"
	"fmt"

	"aimt/internal/arch"
)

// Snapshot is a point-in-time copy of one engine's mutable machine
// state. The engine keeps that state as whole values: the per-layer
// rows and frontier backings live in two arena slabs (see stateArena),
// and every mutable scalar sits in a group struct (machineState,
// netProgress, linkState, checkClock) or in Result. Capturing it is
// bulk slice copies plus one assignment per group — O(state), with no
// per-field copying, so a field added to a group is captured with it —
// cheap enough to take at every contested scheduling decision.
//
// A snapshot is bound to the engine and run it was taken from:
// restoring it into another engine, or after the engine was
// re-initialized for a new workload, is an error. The same Snapshot
// value can be reused across many Snapshot calls; its backing arrays
// are recycled.
type Snapshot struct {
	owner *Engine
	runID uint64

	// Arena slabs: layer rows and frontier backings. The hot rows never
	// change during a run and are not captured.
	rows   []layerState
	fronts []int

	nets   []netSnap
	active []int

	// View scalars; used is the engine's SRAM occupancy counter.
	machineState

	// Host link and pending-arrival state.
	link         linkState
	hostQ        []hostXfer
	arrivalOrder []int

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
	chk              checkClock
	chkLayers        []layerShadow
	chkHostIn        []bool
	chkNext, chkFree []int32

	// Opaque scheduler decision state (StatefulScheduler).
	schedState any
}

// netSnap holds one net's scalar state and frontier lengths. The
// frontier contents live in the fronts slab; only the lengths vary.
type netSnap struct {
	progress               netProgress
	mbFrontLen, cbFrontLen int
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

	dst.rows = append(dst.rows[:0], e.arena.rows...)
	dst.fronts = append(dst.fronts[:0], e.arena.fronts...)
	dst.nets = dst.nets[:0]
	for _, s := range v.nets {
		dst.nets = append(dst.nets, netSnap{s.netProgress, len(s.mbFront), len(s.cbFront)})
	}
	dst.active = append(dst.active[:0], v.active...)
	dst.machineState = v.machineState

	dst.link = e.linkState
	dst.hostQ = append(dst.hostQ[:0], e.hostQ...)
	dst.arrivalOrder = append(dst.arrivalOrder[:0], e.arrivalOrder...)

	dst.res = e.res
	dst.res.NetNames = nil // immutable mid-run; shared, not captured
	dst.res.NetArrive = nil
	dst.res.NetFinish = nil
	dst.resArrive = append(dst.resArrive[:0], e.res.NetArrive...)
	dst.resFinish = append(dst.resFinish[:0], e.res.NetFinish...)

	dst.chkValid = e.chk != nil
	if c := e.chk; c != nil {
		dst.chk = c.checkClock
		dst.chkLayers = append(dst.chkLayers[:0], c.layerSlab...)
		dst.chkHostIn = append(dst.chkHostIn[:0], c.hostInDone...)
		dst.chkNext, dst.chkFree = c.buf.SaveState(dst.chkNext, dst.chkFree)
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
	if len(s.rows) != len(e.arena.rows) || len(s.nets) != len(e.v.nets) {
		return fmt.Errorf("%w: state shape changed since capture", ErrSnapshot)
	}
	v := e.v

	copy(e.arena.rows, s.rows)
	copy(e.arena.fronts, s.fronts)
	for i, sn := range s.nets {
		st := v.nets[i]
		st.netProgress = sn.progress
		// The frontier sub-slices share the fronts slab just restored;
		// only their lengths need rewinding (capacity is fixed at the
		// net's layer count, so the reslice is always in range).
		st.mbFront = st.mbFront[:sn.mbFrontLen]
		st.cbFront = st.cbFront[:sn.cbFrontLen]
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
	v.machineState = s.machineState

	e.linkState = s.link
	e.hostQ = append(e.hostQ[:0], s.hostQ...)
	e.arrivalOrder = append(e.arrivalOrder[:0], s.arrivalOrder...)

	names, arrive, finish := e.res.NetNames, e.res.NetArrive, e.res.NetFinish
	e.res = s.res
	e.res.NetNames = names
	e.res.NetArrive = arrive
	e.res.NetFinish = finish
	copy(e.res.NetArrive, s.resArrive)
	copy(e.res.NetFinish, s.resFinish)

	if c := e.chk; c != nil && s.chkValid {
		c.checkClock = s.chk
		copy(c.layerSlab, s.chkLayers)
		copy(c.hostInDone, s.chkHostIn)
		c.buf.RestoreState(s.chkNext, s.chkFree)
		c.rebuildHolding()
	}

	if ss, ok := e.sch.(StatefulScheduler); ok {
		ss.RestoreState(s.schedState)
	}
	return nil
}
