package cluster

import (
	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/sched"
	"aimt/internal/serve"
	"aimt/internal/sim"
)

// predictor replaces the dispatcher's static drain-then-serve ETA
// arithmetic with a bounded forward simulation: for an ETA query it
// takes the chip's most recently routed requests (a sliding window of
// predictWindow entries), adds the candidate, and runs the actual
// machine model over those networks from their true arrival cycles.
// The candidate's simulated finish cycle is the prediction.
//
// The static estimate serially sums isolated service estimates, so it
// cannot see multi-tenant overlap — the very effect the accelerator
// is built for. The simulation runs the real engine (pooled, so a
// query is allocation-light) under FIFO, the policy-neutral baseline:
// the point is to model the machine's pipelining, not to guess the
// chip scheduler's reordering.
//
// The window bounds each query's cost: simulating W small networks is
// microseconds, and requests older than the window are almost surely
// drained. A request the simulation cannot place (engine error) falls
// back to the static estimate, so prediction can degrade but never
// fail a dispatch.
type predictor struct {
	cfg arch.Config
	s   *serve.Stream

	// recent holds, per chip, the indices of the last predictWindow
	// entries routed there (oldest first).
	recent [][]int

	// Scratch for assembling each query's sub-workload.
	nets     []*compiler.CompiledNetwork
	arrivals []arch.Cycles
}

// predictWindow bounds each prediction to the chip's most recent
// routed requests. It is what keeps a per-request simulation cheap and
// is also the model's horizon: requests older than the window are
// assumed drained.
const predictWindow = 8

func newPredictor(cfg arch.Config, s *serve.Stream, chips int) *predictor {
	return &predictor{cfg: cfg, s: s, recent: make([][]int, chips)}
}

// record notes that entry idx was routed to chip, sliding the chip's
// window.
func (p *predictor) record(chip, idx int) {
	h := p.recent[chip]
	if len(h) == predictWindow {
		copy(h, h[1:])
		h[len(h)-1] = idx
	} else {
		h = append(h, idx)
	}
	p.recent[chip] = h
}

// eta forward-simulates routing r to chip and returns r's simulated
// finish cycle. static is the caller's drain-then-serve estimate,
// returned unchanged when there is nothing to simulate against or the
// simulation fails.
func (p *predictor) eta(chip int, r Request, static arch.Cycles) arch.Cycles {
	hist := p.recent[chip]
	if len(hist) == 0 {
		// An empty chip pipelines nothing; the isolated service
		// estimate already is the simulation's answer.
		return static
	}
	p.nets = p.nets[:0]
	p.arrivals = p.arrivals[:0]
	for _, idx := range hist {
		p.nets = append(p.nets, p.s.Nets[idx])
		p.arrivals = append(p.arrivals, p.s.Arrivals[idx])
	}
	p.nets = append(p.nets, p.s.Nets[r.Index])
	p.arrivals = append(p.arrivals, r.Arrival)
	res, err := sim.Run(p.cfg, p.nets, sched.NewFIFO(), sim.Options{Arrivals: p.arrivals})
	if err != nil {
		return static
	}
	return res.NetFinish[len(res.NetFinish)-1]
}
