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
// microseconds. Requests older than the window are not assumed
// drained: when an entry leaves a chip's window its predicted finish
// becomes the chip's floor, and the window's entries and the candidate
// are simulated as arriving no earlier than it. That floor carries the
// backlog of every older request, so under sustained overload an ETA
// still grows with the chip's queue. A request the simulation cannot
// place (engine error) falls back to the static estimate, so
// prediction can degrade but never fail a dispatch.
type predictor struct {
	cfg arch.Config
	s   *serve.Stream

	// recent holds, per chip, the indices of the last predictWindow
	// entries routed there (oldest first); floor holds the predicted
	// finish of the newest entry that left the window.
	recent [][]int
	floor  []arch.Cycles

	// Scratch for assembling each query's sub-workload.
	nets     []*compiler.CompiledNetwork
	arrivals []arch.Cycles
}

// predictWindow bounds each prediction to the chip's most recent
// routed requests. It is what keeps a per-request simulation cheap;
// older requests enter only through the chip's floor.
const predictWindow = 8

func newPredictor(cfg arch.Config, s *serve.Stream, chips int) *predictor {
	return &predictor{cfg: cfg, s: s, recent: make([][]int, chips), floor: make([]arch.Cycles, chips)}
}

// record notes that entry idx was routed to chip, sliding the chip's
// window. An entry pushed out of the window raises the chip's floor to
// its predicted finish.
func (p *predictor) record(chip, idx int) {
	h := p.recent[chip]
	if len(h) < predictWindow {
		p.recent[chip] = append(h, idx)
		return
	}
	if res, err := p.simulate(chip, -1, 0); err == nil && res.NetFinish[0] > p.floor[chip] {
		p.floor[chip] = res.NetFinish[0]
	}
	copy(h, h[1:])
	h[len(h)-1] = idx
}

// simulate runs the chip's window under FIFO, followed by entry cand
// arriving at arrive when cand >= 0, every arrival floored at the
// chip's floor.
func (p *predictor) simulate(chip, cand int, arrive arch.Cycles) (*sim.Result, error) {
	p.nets = p.nets[:0]
	p.arrivals = p.arrivals[:0]
	for _, idx := range p.recent[chip] {
		p.nets = append(p.nets, p.s.Nets[idx])
		p.arrivals = append(p.arrivals, max(p.s.Arrivals[idx], p.floor[chip]))
	}
	if cand >= 0 {
		p.nets = append(p.nets, p.s.Nets[cand])
		p.arrivals = append(p.arrivals, max(arrive, p.floor[chip]))
	}
	return sim.Run(p.cfg, p.nets, sched.NewFIFO(), sim.Options{Arrivals: p.arrivals})
}

// eta forward-simulates routing r to chip and returns r's simulated
// finish cycle. static is the caller's drain-then-serve estimate,
// returned unchanged when there is nothing to simulate against or the
// simulation fails.
func (p *predictor) eta(chip int, r Request, static arch.Cycles) arch.Cycles {
	if len(p.recent[chip]) == 0 {
		// An empty chip pipelines nothing; the isolated service
		// estimate already is the simulation's answer.
		return static
	}
	res, err := p.simulate(chip, r.Index, r.Arrival)
	if err != nil {
		return static
	}
	return res.NetFinish[len(res.NetFinish)-1]
}
