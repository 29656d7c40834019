package sched

import (
	"aimt/internal/arch"
	"aimt/internal/sim"
)

// PREMA is a simplified reimplementation of the predictive multi-task
// scheduler of Choi & Rhu (HPCA 2020), the closest related work the
// paper compares against (§VII-C): networks time-share the accelerator
// under token-based preemptive priority, with preemption at layer
// boundaries. Unlike AI-MT it never co-executes blocks from different
// networks — one network owns the machine at a time — so it meets
// latency goals for high-priority tenants but cannot recover the
// compute/memory load imbalance.
//
// Token mechanics (simplified): every waiting network accumulates
// tokens at its priority rate; at each decision point (the active
// network finishes a layer or completes), the waiting network with
// the most tokens — if it beats the active one by Threshold — takes
// over, and its tokens reset.
type PREMA struct {
	base

	// priority holds per-network token accumulation rates; missing
	// entries default to 1.
	priority []float64

	// Threshold is the token lead a challenger needs to preempt the
	// active network.
	Threshold float64

	active     int
	tokens     []float64
	lastUpdate arch.Cycles
}

// NewPREMA returns a PREMA scheduler. priority[i] is network i's token
// rate (nil means equal priorities).
func NewPREMA(priority []float64) *PREMA {
	return &PREMA{
		base:      base{depth: 2},
		priority:  priority,
		Threshold: 1,
		active:    -1,
	}
}

// Name implements sim.Scheduler.
func (p *PREMA) Name() string { return "PREMA" }

func (p *PREMA) rate(net int) float64 {
	if net < len(p.priority) && p.priority[net] > 0 {
		return p.priority[net]
	}
	return 1
}

// accrue advances waiting networks' tokens to the current cycle. Only
// arrived, unfinished networks accumulate: a request that has not
// reached the accelerator yet is not waiting for service.
func (p *PREMA) accrue(v *sim.View) {
	if p.tokens == nil {
		p.tokens = make([]float64, v.NumNets())
	}
	dt := float64(v.Now() - p.lastUpdate)
	p.lastUpdate = v.Now()
	if dt <= 0 {
		return
	}
	for _, i := range v.ActiveNets() {
		if i != p.active {
			p.tokens[i] += dt * p.rate(i)
		}
	}
}

// elect picks the next active network at a decision point.
func (p *PREMA) elect(v *sim.View) {
	p.accrue(v)
	best, bestTok := -1, -1.0
	for _, i := range v.ActiveNets() {
		if p.tokens[i] > bestTok {
			best, bestTok = i, p.tokens[i]
		}
	}
	if best < 0 {
		return
	}
	if p.active >= 0 && !v.NetFinished(p.active) && bestTok < p.tokens[p.active]+p.Threshold {
		return // challenger lacks the lead to preempt
	}
	p.active = best
	p.tokens[best] = 0
}

// decisionPoint reports whether the active network just crossed a
// layer boundary (its last completed compute block ended a layer) or
// is unset/finished.
func (p *PREMA) needsElection(v *sim.View) bool {
	return p.active < 0 || v.NetFinished(p.active)
}

// PickMB issues the active network's next memory block under
// double-buffered prefetching.
func (p *PREMA) PickMB(v *sim.View) (sim.MBRef, bool) {
	if p.needsElection(v) {
		p.elect(v)
	}
	if p.active < 0 {
		return sim.MBRef{}, false
	}
	for _, m := range p.candidates(v) {
		if m.Net == p.active {
			p.enqueue(m)
			return m, true
		}
	}
	return sim.MBRef{}, false
}

// OnCBDone re-elects at layer boundaries — the preemption granularity
// PREMA checkpoints at.
func (p *PREMA) OnCBDone(v *sim.View, r sim.CBRef) {
	if r.Net != p.active {
		return
	}
	if r.Iter == v.LayerIters(r.Net, r.Layer)-1 {
		p.elect(v)
	}
}
