package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/compiler"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
)

// outcome is one unit's checked, summarized simulated output. Every
// field is a function of the unit's inputs alone, so every unit over
// the same inputs, traced or not, must produce the same outcome.
type outcome struct {
	blocks int // MB + CB blocks simulated

	lat           []arch.Cycles // entry latencies; shed entries excluded
	good, offered int           // entries finished by their deadline, entries offered

	// basis holds the simulated times aimt_speedup compares between
	// FIFO and AI-MT: each mix's makespan on paper-mixes, the mean entry
	// latency on the streams.
	basis []float64

	peUtil, memUtil float64
	splits          int
	sramPeak        float64 // weight-SRAM high-water mark ÷ capacity
	served          int     // entries that reached a chip
	tokPerMcycle    float64
	shedFrac        float64
	imbalance       float64

	h               hash.Hash64
	peBusy, memBusy arch.Cycles
	capacity        arch.Cycles // Σ makespan over the engines summed into peBusy
}

func newOutcome() *outcome { return &outcome{h: fnv.New64a()} }

// digest is the FNV-1a hash of every simulated output folded in.
func (o *outcome) digest() uint64 { return o.h.Sum64() }

func (o *outcome) hashInts(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		o.h.Write(b[:])
	}
}

func (o *outcome) hashCycles(cs []arch.Cycles) {
	for _, c := range cs {
		o.hashInts(int64(c))
	}
}

// addResult folds one engine run into the outcome.
func (o *outcome) addResult(cfg arch.Config, r *sim.Result) {
	o.blocks += r.MBCount + r.CBCount
	o.splits += r.Splits
	o.peBusy += r.PEBusy
	o.memBusy += r.MemBusy
	o.capacity += r.Makespan
	if f := float64(r.SRAMPeakBlocks) / float64(cfg.WeightBlocks()); f > o.sramPeak {
		o.sramPeak = f
	}
	o.hashInts(int64(r.Makespan), int64(r.MBCount), int64(r.CBCount), int64(r.Splits),
		int64(r.MemBusy), int64(r.PEBusy), int64(r.HostBusy), int64(r.SRAMPeakBlocks))
	o.hashCycles(r.NetArrive)
	o.hashCycles(r.NetFinish)
}

// utilFromSums sets the engine utilizations from the folded results.
func (o *outcome) utilFromSums() {
	if o.capacity > 0 {
		o.peUtil = float64(o.peBusy) / float64(o.capacity)
		o.memUtil = float64(o.memBusy) / float64(o.capacity)
	}
}

// addLatencies records the latency of every entry of r not shed.
func (o *outcome) addLatencies(r *sim.Result, shed []bool) {
	for i, f := range r.NetFinish {
		if i >= len(shed) || !shed[i] {
			o.lat = append(o.lat, f-r.NetArrive[i])
		}
	}
}

// addReport takes goodput, the speedup basis and tokens from a serving
// report over entries stream entries.
func (o *outcome) addReport(r *serve.Report, entries int) {
	o.served = r.Latency.Count()
	o.good, o.offered = o.served-r.Misses, entries
	o.basis = []float64{r.Latency.Mean()}
	o.tokPerMcycle = r.TokensPerMcycle
	o.hashInts(int64(r.P50), int64(r.P99), int64(r.Misses), int64(r.Shed), int64(r.Tokens))
}

// addSpans hashes the request attribution.
func (o *outcome) addSpans(spans []rtrace.RequestSpan) {
	for _, sp := range spans {
		o.hashInts(int64(sp.Req), int64(sp.Latency))
		for _, seg := range sp.Totals {
			o.hashInts(int64(seg.Cycles))
		}
	}
}

// checkResult checks one engine run over nets: every entry finished no
// earlier than it arrived and no later than the makespan, and every
// compiled sub-layer was fetched and computed exactly once.
func checkResult(nets []*compiler.CompiledNetwork, r *sim.Result) error {
	if len(r.NetFinish) != len(nets) || len(r.NetArrive) != len(nets) {
		return fmt.Errorf("result covers %d/%d of %d entries", len(r.NetArrive), len(r.NetFinish), len(nets))
	}
	subLayers := 0
	for i, cn := range nets {
		subLayers += cn.Stats().SubLayers
		if r.NetFinish[i] < r.NetArrive[i] || r.NetFinish[i] <= 0 || r.NetFinish[i] > r.Makespan {
			return fmt.Errorf("entry %d: arrive %d, finish %d, makespan %d", i, r.NetArrive[i], r.NetFinish[i], r.Makespan)
		}
	}
	if r.MBCount != subLayers || r.CBCount != subLayers {
		return fmt.Errorf("simulated %d MBs and %d CBs, compiled %d sub-layers", r.MBCount, r.CBCount, subLayers)
	}
	return nil
}

// checkSpans checks request attribution: one span per request, and the
// segments of every span and entry sum exactly to its latency.
func checkSpans(spans []rtrace.RequestSpan, requests int) error {
	if len(spans) != requests {
		return fmt.Errorf("%d spans for %d requests", len(spans), requests)
	}
	for _, sp := range spans {
		if sum(sp.Totals) != sp.Latency || sp.Latency != sp.Finish-sp.Arrive {
			return fmt.Errorf("request %d: segments sum to %d, latency %d", sp.Req, sum(sp.Totals), sp.Latency)
		}
		for _, e := range sp.Entries {
			if sum(e.Segments) != e.Finish-e.Arrive {
				return fmt.Errorf("request %d entry %d: segments sum to %d, window %d", sp.Req, e.Entry, sum(e.Segments), e.Finish-e.Arrive)
			}
		}
	}
	return nil
}

func sum(segs []rtrace.Segment) arch.Cycles {
	var t arch.Cycles
	for _, s := range segs {
		t += s.Cycles
	}
	return t
}

// checkCluster checks a cluster run: every entry is either assigned to
// a chip or shed, never both, and every chip's run passes checkResult
// over exactly the entries routed to it. It returns the outcome and the
// chip results merged into stream order.
func checkCluster(cfg arch.Config, s *serve.Stream, r *cluster.Result, chips int) (*outcome, *sim.Result, error) {
	n := len(s.Nets)
	if len(r.Assignment) != n {
		return nil, nil, fmt.Errorf("assignment covers %d of %d entries", len(r.Assignment), n)
	}
	perChip := make([][]int, chips)
	shed := 0
	for i, c := range r.Assignment {
		isShed := r.Shed != nil && r.Shed[i]
		switch {
		case isShed && c == -1:
			shed++
		case !isShed && c >= 0 && c < chips:
			perChip[c] = append(perChip[c], i)
		default:
			return nil, nil, fmt.Errorf("entry %d: chip %d, shed %v", i, c, isShed)
		}
	}
	if shed != r.ShedCount {
		return nil, nil, fmt.Errorf("%d entries shed, result counts %d", shed, r.ShedCount)
	}
	out := newOutcome()
	merged := &sim.Result{
		Scheduler: r.Scheduler,
		NetNames:  make([]string, n),
		NetArrive: append([]arch.Cycles(nil), s.Arrivals...),
		NetFinish: make([]arch.Cycles, n),
	}
	for c, idx := range perChip {
		res := r.ChipResults[c]
		if len(idx) == 0 {
			continue
		}
		if res == nil {
			return nil, nil, fmt.Errorf("chip %d: %d entries routed, no result", c, len(idx))
		}
		nets := make([]*compiler.CompiledNetwork, len(idx))
		for li, gi := range idx {
			nets[li] = s.Nets[gi]
			merged.NetArrive[gi] = res.NetArrive[li]
			merged.NetFinish[gi] = res.NetFinish[li]
			merged.NetNames[gi] = res.NetNames[li]
		}
		if err := checkResult(nets, res); err != nil {
			return nil, nil, fmt.Errorf("chip %d: %w", c, err)
		}
		out.addResult(cfg, res)
		merged.PEBusy += res.PEBusy
		merged.MemBusy += res.MemBusy
		if res.Makespan > merged.Makespan {
			merged.Makespan = res.Makespan
		}
	}
	out.hashInts(int64(r.ShedCount))
	for _, c := range r.Assignment {
		out.hashInts(int64(c))
	}
	out.addReport(r.Agg, n)
	out.addLatencies(merged, r.Shed)
	out.peUtil, out.memUtil = r.Agg.PEUtil, r.Agg.MemUtil
	out.shedFrac = float64(r.ShedCount) / float64(n)
	out.imbalance = r.Imbalance
	return out, merged, nil
}
