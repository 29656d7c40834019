// Package sched implements the baseline scheduling policies the paper
// compares against (§III-B, Fig 6, Fig 8, Fig 16): FIFO (network-
// serial), round-robin, greedy size matching, shortest-job-first, and
// the compute-intensive-first static order of Fig 9a.
//
// All baselines operate at sub-layer granularity and support weight
// prefetching with a configurable depth: Depth = 2 models the
// conventional double-buffering of the baseline accelerator (§II-B);
// Depth = 0 removes the bound so prefetching is limited only by SRAM
// capacity (the "+ MB prefetching" variants of Fig 16). Compute blocks
// always execute in the order their memory blocks were issued, which
// is how a sub-layer-granularity pipeline behaves.
package sched

import (
	"aimt/internal/arch"
	"aimt/internal/sim"
)

// base provides the issue-order compute-block queue shared by every
// baseline policy.
type base struct {
	sim.NopHooks
	// Depth bounds outstanding (issued, compute-incomplete) memory
	// blocks; 0 means unbounded (SRAM-capacity limited).
	depth int
	q     []sim.CBRef
	// scratch buffers reused across picks.
	mbs []sim.MBRef
}

func (b *base) depthOK(v *sim.View) bool {
	return b.depth <= 0 || v.OutstandingMBs() < b.depth
}

// enqueue records that the scheduler is about to issue r's memory
// block; the matching compute block runs in issue order.
func (b *base) enqueue(r sim.MBRef) {
	b.q = append(b.q, sim.CBRef{Net: r.Net, Layer: r.Layer, Iter: r.Iter})
}

// PickCB returns the head of the issue-order queue; the engine waits
// on it if its weights are still in flight.
func (b *base) PickCB(v *sim.View) (sim.CBRef, bool) {
	if len(b.q) == 0 {
		return sim.CBRef{}, false
	}
	return b.q[0], true
}

// OnCBStart pops the issue-order queue.
func (b *base) OnCBStart(v *sim.View, r sim.CBRef) {
	if len(b.q) > 0 && b.q[0] == r {
		b.q = b.q[1:]
	}
}

// ForceMB records a memory-block issue the policy did not pick
// itself: a wrapping scheduler (Lookahead) committed r directly, and
// the matching compute block must still run in issue order. Without
// this the issue-order queue would desynchronize from the machine and
// the forced block's weights would sit in SRAM forever.
func (b *base) ForceMB(v *sim.View, r sim.MBRef) { b.enqueue(r) }

// candidates returns the issuable memory blocks under the depth bound.
func (b *base) candidates(v *sim.View) []sim.MBRef {
	b.mbs = b.mbs[:0]
	if !b.depthOK(v) {
		return b.mbs
	}
	all := v.MBCandidates(b.mbs)
	n := 0
	for _, r := range all {
		if v.IsMBIssuable(r) {
			all[n] = r
			n++
		}
	}
	b.mbs = all[:n]
	return b.mbs
}

// FIFO executes networks in arrival order: the first network's
// sub-layers are exhausted before the next network's begin (the
// paper's network-serial baseline, Fig 6a).
type FIFO struct{ base }

// NewFIFO returns a FIFO scheduler with double-buffered prefetching.
func NewFIFO() *FIFO { return &FIFO{base{depth: 2}} }

// NewSerialFIFO returns a FIFO scheduler with no prefetching at all:
// at most one memory block in flight, so every fetch and compute
// fully serialize. Its makespan is the analytic serialized bound
// (the sum of all MB and CB cycles) — the reference point the
// differential tests compare the simulator against.
func NewSerialFIFO() *FIFO { return &FIFO{base{depth: 1}} }

// Name implements sim.Scheduler.
func (f *FIFO) Name() string {
	if f.depth == 1 {
		return "SerialFIFO"
	}
	return "FIFO"
}

// PickMB implements sim.Scheduler: the lowest (net, layer) candidate.
func (f *FIFO) PickMB(v *sim.View) (sim.MBRef, bool) {
	c := f.candidates(v)
	if len(c) == 0 {
		return sim.MBRef{}, false
	}
	f.enqueue(c[0])
	return c[0], true
}

// RR rotates across networks per sub-layer (Fig 6b), providing
// fairness but no load matching.
type RR struct {
	base
	next int
}

// NewRR returns a round-robin scheduler with double-buffered
// prefetching.
func NewRR() *RR { return &RR{base: base{depth: 2}} }

// Name implements sim.Scheduler.
func (*RR) Name() string { return "RR" }

// PickMB implements sim.Scheduler: the first issuable candidate at or
// after the rotation pointer, wrapping to the first candidate.
// Candidates come in net order, so one pass finds it.
func (r *RR) PickMB(v *sim.View) (sim.MBRef, bool) {
	c := r.candidates(v)
	if len(c) == 0 {
		return sim.MBRef{}, false
	}
	m := c[0]
	for _, x := range c {
		if x.Net >= r.next {
			m = x
			break
		}
	}
	r.next = (m.Net + 1) % v.NumNets()
	r.enqueue(m)
	return m, true
}

// Greedy dynamically selects the memory block whose duration is most
// similar to the currently executing compute block (Fig 6c).
type Greedy struct{ base }

// NewGreedy returns a greedy scheduler with double-buffered
// prefetching.
func NewGreedy() *Greedy { return &Greedy{base{depth: 2}} }

// NewGreedyPrefetch returns the Fig 16 variant whose prefetch depth is
// bounded only by SRAM capacity.
func NewGreedyPrefetch() *Greedy { return &Greedy{base{depth: 0}} }

// Name implements sim.Scheduler.
func (g *Greedy) Name() string {
	if g.depth == 0 {
		return "Greedy+PF"
	}
	return "Greedy"
}

// PickMB implements sim.Scheduler.
func (g *Greedy) PickMB(v *sim.View) (sim.MBRef, bool) {
	c := g.candidates(v)
	if len(c) == 0 {
		return sim.MBRef{}, false
	}
	target := arch.Cycles(0)
	if _, rem, ok := v.ExecutingCB(); ok {
		target = rem
	}
	best := c[0]
	bestDist := dist(v.MBCycles(best), target)
	for _, m := range c[1:] {
		if d := dist(v.MBCycles(m), target); d < bestDist {
			best, bestDist = m, d
		}
	}
	g.enqueue(best)
	return best, true
}

func dist(a, b arch.Cycles) arch.Cycles {
	if a > b {
		return a - b
	}
	return b - a
}

// SJF picks the sub-layer with the smallest max(MB, CB) duration
// (§III-B: "the size is determined by max(MB cycle, CB cycle)").
type SJF struct{ base }

// NewSJF returns a shortest-job-first scheduler with double-buffered
// prefetching.
func NewSJF() *SJF { return &SJF{base{depth: 2}} }

// Name implements sim.Scheduler.
func (*SJF) Name() string { return "SJF" }

// PickMB implements sim.Scheduler.
func (s *SJF) PickMB(v *sim.View) (sim.MBRef, bool) {
	c := s.candidates(v)
	if len(c) == 0 {
		return sim.MBRef{}, false
	}
	size := func(m sim.MBRef) arch.Cycles {
		mb, cb := v.BlockCycles(m.Net, m.Layer)
		if mb > cb {
			return mb
		}
		return cb
	}
	best := c[0]
	bestSize := size(best)
	for _, m := range c[1:] {
		if sz := size(m); sz < bestSize {
			best, bestSize = m, sz
		}
	}
	s.enqueue(best)
	return best, true
}

// ComputeFirst is the naive prefetch-aware static order of Fig 9a:
// all sub-layers of compute-intensive networks first, then the
// memory-intensive networks, with prefetching bounded only by SRAM
// capacity. It ignores fairness (paper §III-C).
type ComputeFirst struct {
	base
	memHeavy []bool
}

// NewComputeFirst returns the Fig 16 "naive + MB prefetching"
// scheduler. memHeavy flags, indexed by network instance, mark the
// networks to defer; construct it with MarkMemoryIntensive.
func NewComputeFirst(memHeavy []bool) *ComputeFirst {
	return &ComputeFirst{base: base{depth: 0}, memHeavy: memHeavy}
}

// Name implements sim.Scheduler.
func (*ComputeFirst) Name() string { return "ComputeFirst+PF" }

// PickMB implements sim.Scheduler: lowest (class, net, layer) where
// compute-intensive networks form the earlier class.
func (cf *ComputeFirst) PickMB(v *sim.View) (sim.MBRef, bool) {
	c := cf.candidates(v)
	if len(c) == 0 {
		return sim.MBRef{}, false
	}
	best := -1
	for i, m := range c {
		if best < 0 || cf.class(m.Net) < cf.class(c[best].Net) {
			best = i
		}
	}
	cf.enqueue(c[best])
	return c[best], true
}

func (cf *ComputeFirst) class(net int) int {
	if net < len(cf.memHeavy) && cf.memHeavy[net] {
		return 1
	}
	return 0
}
