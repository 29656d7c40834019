package cluster

import (
	"fmt"

	"aimt/internal/arch"
	"aimt/internal/obs"
	"aimt/internal/serve"
)

// Control configures the cluster's overload control plane: SLO-aware
// admission control and elastic autoscaling, both acting at dispatch
// time with exactly the information a production front door has —
// arrivals, class service estimates and its own routing decisions.
// The zero value disables everything, and the dispatcher then routes
// every request by the policy alone.
type Control struct {
	// Admission enables SLO-aware shedding: a request of the lowest
	// priority band whose best predicted completion (per-chip
	// outstanding-work estimate drained, then served) exceeds its
	// deadline is dropped at the front door instead of routed. Higher
	// bands are never shed — overload degrades the cheap traffic
	// first, predictably.
	Admission bool

	// Autoscale enables elastic sizing of the active chip set: the
	// dispatcher starts at one chip and grows toward Options.Chips
	// when the mean backlog depth per active chip stays above
	// scaleUpDepth for scalePatience consecutive arrivals, shrinking
	// symmetrically below scaleDownDepth (never below one chip).
	// Hysteresis comes from the gap between the two thresholds plus
	// the patience run length.
	Autoscale bool
}

// The autoscaler's thresholds, as backlog depths in units of mean
// request service per active chip: grow above scaleUpDepth, shrink
// below scaleDownDepth, each after scalePatience consecutive arrivals
// past the threshold.
const (
	scaleUpDepth   = 3
	scaleDownDepth = 0.5
	scalePatience  = 8
)

// ctlStats carries the dispatch-time control-plane outcome into the
// cluster result.
type ctlStats struct {
	shedCount  int
	scaleUps   int
	scaleDowns int
	active     int // active chip count at end of dispatch
}

// ctlNote logs one control-plane decision (a nil log is a no-op). The
// dispatcher has no SRAM or AVL_CB context, so those fields stay zero;
// cycle is the arrival the decision fired at.
func ctlNote(log *obs.Log, kind obs.KindSlot, cycle arch.Cycles, net int, detail arch.Cycles) {
	if log != nil {
		log.Note(kind, obs.SlotNone, cycle, net, -1, -1, 0, 0, detail, 0)
	}
}

// dispatch routes every request of the stream in arrival order. Per
// arrival it first lets the autoscaler adjust the active chip set,
// then applies admission control, then routes via the policy within
// the active set. pred, when non-nil, replaces the static ETA
// arithmetic behind View.predictETA with forward simulation. etas,
// when non-nil (and stream-length), receives each entry's dispatcher
// completion estimate at routing time for the request tracer. notes,
// when non-nil, logs the shed and scale decisions in order.
//
// It returns the assignment (-1 for shed requests), the shed mask and
// the control-plane stats. The mask is nil exactly when admission,
// autoscaling and the predictor are all off, which is what tells
// Result.publish the control plane was idle.
func dispatch(s *serve.Stream, pol Policy, chips int, ctl Control, pred *predictor, notes *obs.Log, etas []arch.Cycles) ([]int, []bool, ctlStats, error) {
	if chips <= 0 {
		return nil, nil, ctlStats{}, fmt.Errorf("cluster: chips must be positive, got %d", chips)
	}
	active := chips
	if ctl.Autoscale {
		active = 1
	}

	// The lowest priority band is the only sheddable one. With uniform
	// priorities (including the all-zero default) every class is in the
	// lowest band, so admission may shed any class — priorities are what
	// make degradation selective.
	minPrio := 0
	if len(s.ClassPriority) > 0 {
		minPrio = s.ClassPriority[0]
		for _, p := range s.ClassPriority[1:] {
			if p < minPrio {
				minPrio = p
			}
		}
	}

	v := &View{
		chips:   active,
		classes: len(s.Classes),
		freeAt:  make([]arch.Cycles, chips),
		pred:    pred,
	}
	assign := make([]int, len(s.Nets))
	var shed []bool
	if ctl.Admission || ctl.Autoscale || pred != nil {
		shed = make([]bool, len(s.Nets))
	}
	var st ctlStats
	var upRun, downRun int
	for i := range s.Nets {
		r := Request{
			Index:    i,
			Class:    s.ClassOf[i],
			Arrival:  s.Arrivals[i],
			Deadline: s.Deadlines[i],
			Service:  s.EntryService(i),
		}
		if r.Class < len(s.ClassPriority) {
			r.Priority = s.ClassPriority[r.Class]
		}

		// Control decisions fire at request granularity: a decode phase
		// follows its request head — shed with it, or routed to the same
		// chip (its KV cache lives there) while still advancing that
		// chip's backlog — and never triggers autoscaling or admission
		// on its own.
		if s.ChainAfter != nil && s.ChainAfter[i] >= 0 {
			p := s.ChainAfter[i]
			if shed != nil && shed[p] {
				assign[i] = -1
				shed[i] = true
				st.shedCount++
				continue
			}
			c := assign[p]
			assign[i] = c
			if etas != nil {
				etas[i] = v.eta(c, r)
			}
			v.route(c, r)
			continue
		}

		if ctl.Autoscale && s.MeanService > 0 {
			var backlog arch.Cycles
			for c := 0; c < active; c++ {
				backlog += v.backlog(c, r.Arrival)
			}
			depth := float64(backlog) / (float64(active) * s.MeanService)
			switch {
			case depth > scaleUpDepth:
				upRun++
				downRun = 0
			case depth < scaleDownDepth:
				downRun++
				upRun = 0
			default:
				upRun, downRun = 0, 0
			}
			if upRun >= scalePatience && active < chips {
				active++
				upRun, downRun = 0, 0
				st.scaleUps++
				ctlNote(notes, obs.SlotScaleUp, r.Arrival, -1, arch.Cycles(active))
			} else if downRun >= scalePatience && active > 1 {
				active--
				upRun, downRun = 0, 0
				st.scaleDowns++
				ctlNote(notes, obs.SlotScaleDown, r.Arrival, -1, arch.Cycles(active))
			}
			v.chips = active
		}

		if ctl.Admission && r.Priority == minPrio {
			// The admission check reads the predictETA seam: static
			// arithmetic normally, the forward-simulated completion
			// under the predictive policy — shedding decisions then see
			// the multi-tenant overlap the serial sum cannot.
			best := v.predictETA(0, r)
			for c := 1; c < active; c++ {
				if eta := v.predictETA(c, r); eta < best {
					best = eta
				}
			}
			if best > r.Deadline {
				assign[i] = -1
				shed[i] = true
				st.shedCount++
				if etas != nil {
					etas[i] = best // the prediction that broke the deadline
				}
				ctlNote(notes, obs.SlotShed, r.Arrival, i, best-r.Deadline)
				continue
			}
		}

		c := pol.Pick(v, r)
		if c < 0 || c >= active {
			return nil, nil, ctlStats{}, fmt.Errorf("cluster: policy %s routed request %d to chip %d, want [0,%d)", pol.Name(), i, c, active)
		}
		assign[i] = c
		if etas != nil {
			etas[i] = v.eta(c, r)
		}
		v.route(c, r)
	}
	st.active = active
	return assign, shed, st, nil
}
