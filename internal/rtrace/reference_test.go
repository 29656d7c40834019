package rtrace

// This file keeps the sort- and map-based span builder that the typed
// log and counting-pass Build replaced, verbatim apart from names, as
// the reference for the differential tests: both must produce
// reflect.DeepEqual spans for the same event stream.

import (
	"sort"
	"strings"

	"aimt/internal/arch"
)

// refPE is one PE occupancy interval with enough identity to pair a
// split-halted block with its resumption.
type refPE struct {
	start, end  arch.Cycles
	layer, iter int
	split       bool
}

type refIval struct{ start, end arch.Cycles }

// refCollector buckets occupancy events into per-instance slices.
type refCollector struct {
	pe   [][]refPE
	mem  [][]refIval
	host [][]refIval
}

func newRefCollector(nets int) *refCollector {
	return &refCollector{
		pe:   make([][]refPE, nets),
		mem:  make([][]refIval, nets),
		host: make([][]refIval, nets),
	}
}

func (c *refCollector) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	if net < 0 || net >= len(c.pe) || end <= start {
		return
	}
	switch engine {
	case "pe":
		split := strings.HasPrefix(name, "CB(split)")
		c.pe[net] = append(c.pe[net], refPE{start, end, layer, iter, split})
	case "mem":
		c.mem[net] = append(c.mem[net], refIval{start, end})
	case "host":
		c.host[net] = append(c.host[net], refIval{start, end})
	}
}

func (c *refCollector) Merge(sub *refCollector, remap []int) {
	for li, gi := range remap {
		if li >= len(sub.pe) || gi < 0 || gi >= len(c.pe) {
			continue
		}
		c.pe[gi] = append(c.pe[gi], sub.pe[li]...)
		c.mem[gi] = append(c.mem[gi], sub.mem[li]...)
		c.host[gi] = append(c.host[gi], sub.host[li]...)
	}
}

func refBuild(in Input, c *refCollector) []RequestSpan {
	n := len(in.ClassOf)
	if n == 0 {
		return nil
	}
	// Group entries by request id, preserving entry order.
	groups := make([][]int, 0, n)
	at := make(map[int]int, n)
	for i := 0; i < n; i++ {
		req := i
		if in.ReqOf != nil {
			req = in.ReqOf[i]
		}
		gi, ok := at[req]
		if !ok {
			gi = len(groups)
			at[req] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}

	out := make([]RequestSpan, 0, len(groups))
	for _, g := range groups {
		head, last := g[0], g[len(g)-1]
		req := head
		if in.ReqOf != nil {
			req = in.ReqOf[head]
		}
		sp := RequestSpan{
			Req:      req,
			Run:      in.Run,
			Class:    in.Classes[in.ClassOf[head]],
			Arrive:   in.StreamArrive[head],
			Deadline: in.Deadlines[last],
		}
		if in.Chip != nil {
			sp.Chip = in.Chip[head]
		}
		if in.ETA != nil {
			sp.ETA = in.ETA[head]
		}
		if in.Shed != nil && in.Shed[head] {
			sp.Shed = true
			sp.Chip = -1
			out = append(out, sp)
			continue
		}

		totals := map[string]arch.Cycles{}
		done := true
		for _, i := range g {
			a, f := in.Arrive[i], in.Finish[i]
			if f < a || (f == 0 && a > 0) {
				done = false // truncated run: entry never finished
				break
			}
			es := EntrySpan{Entry: i, Arrive: a, Finish: f}
			if in.Phases != nil {
				es.Phase = in.Phases[i]
			}
			es.Segments, es.Intervals = refAttribute(a, f, c.pe[i], c.mem[i], c.host[i])
			for _, s := range es.Segments {
				totals[s.Kind] += s.Cycles
			}
			sp.Entries = append(sp.Entries, es)
		}
		if !done {
			continue
		}
		sp.Finish = in.Finish[last]
		sp.Latency = sp.Finish - sp.Arrive
		sp.Missed = sp.Finish > sp.Deadline
		for _, k := range SegmentKinds {
			if totals[k] > 0 {
				sp.Totals = append(sp.Totals, Segment{Kind: k, Cycles: totals[k]})
			}
		}
		out = append(out, sp)
	}
	return out
}

// Classification priorities: lower wins when intervals overlap.
const (
	refPrioPE = iota
	refPrioHost
	refPrioPreempt
	refPrioHBM
	refNPrio
)

var refKind = [refNPrio + 1]string{SegPE, SegHost, SegPreempt, SegHBM, SegQueue}

// refBnd is one sweep boundary: at cycle `at`, priority `prio` gains
// (+1) or loses (-1) one covering interval.
type refBnd struct {
	at    arch.Cycles
	prio  int
	delta int
}

// refAttribute partitions [a, f) into labelled segments using the
// collected occupancy intervals for one entry. The returned intervals
// cover the window exactly; the segments are the per-kind sums.
func refAttribute(a, f arch.Cycles, pe []refPE, mem, host []refIval) ([]Segment, []Interval) {
	if f <= a {
		return nil, nil
	}
	bs := make([]refBnd, 0, 2*(len(pe)+len(mem)+len(host))+8)
	add := func(prio int, s, e arch.Cycles) {
		if s < a {
			s = a
		}
		if e > f {
			e = f
		}
		if s < e {
			bs = append(bs, refBnd{s, prio, 1}, refBnd{e, prio, -1})
		}
	}
	for _, iv := range pe {
		add(refPrioPE, iv.start, iv.end)
	}
	for _, iv := range host {
		add(refPrioHost, iv.start, iv.end)
	}
	for _, iv := range mem {
		add(refPrioHBM, iv.start, iv.end)
	}
	// A split-halted compute block is preempted out until the next PE
	// interval for the same (layer, iter) begins.
	for i, iv := range pe {
		if !iv.split {
			continue
		}
		resume := f
		for j, jv := range pe {
			if j == i || jv.layer != iv.layer || jv.iter != iv.iter {
				continue
			}
			if jv.start >= iv.end && jv.start < resume {
				resume = jv.start
			}
		}
		add(refPrioPreempt, iv.end, resume)
	}

	sort.Slice(bs, func(i, j int) bool {
		if bs[i].at != bs[j].at {
			return bs[i].at < bs[j].at
		}
		if bs[i].prio != bs[j].prio {
			return bs[i].prio < bs[j].prio
		}
		return bs[i].delta < bs[j].delta
	})

	var counts [refNPrio]int
	kindAt := func() string {
		for p := 0; p < refNPrio; p++ {
			if counts[p] > 0 {
				return refKind[p]
			}
		}
		return SegQueue
	}
	var ivs []Interval
	sums := map[string]arch.Cycles{}
	emit := func(from, to arch.Cycles, kind string) {
		if to <= from {
			return
		}
		sums[kind] += to - from
		if n := len(ivs); n > 0 && ivs[n-1].Kind == kind && ivs[n-1].End == from {
			ivs[n-1].End = to
			return
		}
		ivs = append(ivs, Interval{Kind: kind, Start: from, End: to})
	}
	cur := a
	for i := 0; i < len(bs); {
		at := bs[i].at
		emit(cur, at, kindAt())
		if at > cur {
			cur = at
		}
		for i < len(bs) && bs[i].at == at {
			counts[bs[i].prio] += bs[i].delta
			i++
		}
	}
	emit(cur, f, kindAt())

	segs := make([]Segment, 0, len(sums))
	for _, k := range SegmentKinds {
		if sums[k] > 0 {
			segs = append(segs, Segment{Kind: k, Cycles: sums[k]})
		}
	}
	return segs, ivs
}
