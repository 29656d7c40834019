// Package rtrace is the per-request span tracer: it turns the
// engine's occupancy events into an attributed span per served
// request, decomposing end-to-end latency cycle-exactly into named
// segments (idle-in-queue, hbm-bound, pe-bound, preempted-out, host).
//
// The pipeline has three pieces:
//
//   - Collector implements sim.Tracer structurally and appends every
//     occupancy interval to one flat log of fixed-size typed records
//     (engine kind, instance, layer, iter, start, end), growing a
//     chunk at a time. It is attached per run (per chip in a cluster)
//     and merged into stream coordinates. It is the only occupancy
//     recorder: Events replays the log, labels resolved at export
//     time, for the Gantt, utilization and Chrome renderers in
//     package trace.
//   - Build folds a stream's metadata plus a finished sim.Result and
//     a Collector into []RequestSpan: one span per request, one entry
//     span per phase (prefill, each decode step), each partitioned
//     into segments that sum exactly to finish − arrival. It buckets
//     the log by instance and groups entries by request with counting
//     passes, and carves the spans' slices from a few shared slabs.
//   - Store (store.go) retains bounded state across runs: worst-N
//     tail exemplars per class, a sampled ring of recent spans, and
//     running attribution aggregates.
//
// Tracing allocates O(requests), not O(events): the engine hands over
// labels resolved once per compiled network, the log never copies
// what it holds, and Build keeps its per-entry sums in fixed arrays
// and its working buffers in a pool.
//
// Attribution rule: within an entry's [effective arrival, finish)
// window every cycle gets exactly one label, chosen by priority
// pe-bound > host > preempted-out > hbm-bound, with idle-in-queue as
// the remainder. Because the labels partition the window, the
// reconciliation identity Σ segments = finish − arrival holds by
// construction, and chained entries telescope (each decode's
// effective arrival is its predecessor's finish) so request segments
// sum to last finish − head arrival.
package rtrace

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/trace"
)

// Segment kinds, in canonical report order. Every attributed cycle
// carries exactly one of these labels.
const (
	// SegQueue is time the entry was ready but no engine was doing its
	// work: waiting for AVL_CB credit, for the PE array, or for its
	// turn in the memory-block schedule.
	SegQueue = "idle-in-queue"

	// SegHBM is time the HBM channel was fetching this entry's own
	// memory blocks while its PE work was stalled on them.
	SegHBM = "hbm-bound"

	// SegPE is time the PE array was executing this entry's compute
	// blocks.
	SegPE = "pe-bound"

	// SegPreempt is time between a split-halted compute block and its
	// resumption: the entry was preempted out by a higher-priority
	// competitor.
	SegPreempt = "preempted-out"

	// SegHost is PCIe transfer time for this entry's input and output.
	SegHost = "host"
)

// SegmentKinds lists every segment label in canonical report order.
var SegmentKinds = []string{SegQueue, SegHBM, SegPE, SegPreempt, SegHost}

// Segment is one attributed share of an entry or request window.
type Segment struct {
	Kind   string      `json:"kind"`
	Cycles arch.Cycles `json:"cycles"`
}

// Interval is one contiguous attributed slice of an entry's window,
// suitable for rendering as a waterfall bar or a Perfetto slice.
type Interval struct {
	Kind  string      `json:"kind"`
	Start arch.Cycles `json:"start"`
	End   arch.Cycles `json:"end"`
}

// EntrySpan is the attributed execution of one stream entry (one
// request phase): a single-shot request's whole service, a
// transformer prompt pass, or one decode iteration.
type EntrySpan struct {
	// Entry is the stream index of this phase.
	Entry int `json:"entry"`

	// Phase names the request phase ("single", "prefill", "decode").
	Phase string `json:"phase,omitempty"`

	// Arrive is the effective arrival: the stream arrival for a head
	// entry, the predecessor's finish for a chained decode step.
	Arrive arch.Cycles `json:"arrive"`

	// Finish is the completion cycle.
	Finish arch.Cycles `json:"finish"`

	// Segments partition [Arrive, Finish): they sum exactly to
	// Finish − Arrive. Zero-cycle kinds are omitted.
	Segments []Segment `json:"segments"`

	// Intervals is the same partition in time order, contiguous slices
	// covering [Arrive, Finish) exactly.
	Intervals []Interval `json:"intervals,omitempty"`
}

// RequestSpan is the end-to-end attributed trace of one request.
type RequestSpan struct {
	// Req is the request id (stream ReqOf value).
	Req int `json:"req"`

	// Run labels the sweep point that served the request, e.g.
	// "AI-MT@0.80" or "AI-MT/least-work".
	Run string `json:"run,omitempty"`

	// Class is the request class name.
	Class string `json:"class"`

	// Chip is the chip the dispatcher routed the request to (0 for
	// single-chip runs, -1 for shed requests).
	Chip int `json:"chip"`

	// ETA is the dispatcher's predicted completion cycle at routing
	// time (0 when no dispatcher estimate was recorded). For shed
	// requests it is the prediction that exceeded the deadline.
	ETA arch.Cycles `json:"eta,omitempty"`

	// Shed reports that admission control rejected the request; shed
	// spans have no entries and zero latency.
	Shed bool `json:"shed,omitempty"`

	// Arrive is the head entry's stream arrival cycle.
	Arrive arch.Cycles `json:"arrive"`

	// Finish is the last entry's completion cycle.
	Finish arch.Cycles `json:"finish"`

	// Deadline is the last entry's absolute deadline.
	Deadline arch.Cycles `json:"deadline"`

	// Missed reports Finish > Deadline.
	Missed bool `json:"missed,omitempty"`

	// Latency is Finish − Arrive.
	Latency arch.Cycles `json:"latency"`

	// Totals sums each segment kind across entries. Because chained
	// entries telescope, Totals sum exactly to Latency.
	Totals []Segment `json:"totals"`

	// Entries holds the per-phase spans in execution order.
	Entries []EntrySpan `json:"entries"`
}

// Log record kinds: the engine an occupancy interval ran on, with the
// CB-split identity and the host transfer direction decided once, when
// the event is logged.
const (
	kindPE uint8 = iota
	kindPESplit
	kindMem
	kindHostIn
	kindHostOut
)

// kindEngine and kindLabel map a record kind back to the engine name
// and the compiled layer label the engine emitted it under.
var (
	kindEngine = [...]string{kindPE: "pe", kindPESplit: "pe", kindMem: "mem", kindHostIn: "host", kindHostOut: "host"}
	kindLabel  = [...]compiler.LabelKind{kindPE: compiler.LabelCB, kindPESplit: compiler.LabelCBSplit, kindMem: compiler.LabelMB}
)

// record is one occupancy interval in the collector's log.
type record struct {
	start, end       arch.Cycles
	net, layer, iter int32
	kind             uint8
}

// logChunk is the record count of one log chunk. The log grows a
// chunk at a time, so logging never copies what is already recorded.
const logChunk = 2048

// Collector logs engine occupancy events for a stream of network
// instances. It implements sim.Tracer structurally; attach it via
// sim.Options.Tracer. It is the only occupancy recorder: span
// attribution (Build) and every timeline export (Events) read its log.
// The log is one append-only sequence of fixed-size typed records held
// in fixed-size chunks: recording costs one allocation per logChunk
// events and none per event. The zero Collector is unusable — size it
// with NewCollector.
type Collector struct {
	nets   int
	chunks [][]record // every chunk but the last is full
}

// NewCollector sizes a collector for a stream of nets instances.
func NewCollector(nets int) *Collector {
	return &Collector{nets: nets}
}

// Event implements the sim.Tracer contract. Events for out-of-range
// instances (host warm-up probes, etc.) are dropped.
func (c *Collector) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	if net < 0 || net >= c.nets || end <= start {
		return
	}
	var kind uint8
	switch engine {
	case "pe":
		kind = kindPE
		if strings.HasPrefix(name, "CB(split)") {
			kind = kindPESplit
		}
	case "mem":
		kind = kindMem
	case "host":
		kind = kindHostIn
		if name == "host-out" {
			kind = kindHostOut
		}
	default:
		return
	}
	c.add(record{start, end, int32(net), int32(layer), int32(iter), kind})
}

func (c *Collector) add(r record) {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k]) == logChunk {
		c.chunks = append(c.chunks, make([]record, 0, logChunk))
		k++
	}
	c.chunks[k] = append(c.chunks[k], r)
}

// Events rebuilds the logged occupancy intervals in log order, the
// order the engine emitted them, for the timeline renderers in package
// trace. Labels are resolved at export time: nets[i] must be the
// compiled network of instance i, and a block's name is its layer's
// label ("MB:", "CB:" or "CB(split):" plus the layer name); host
// transfers are named "host-in" or "host-out".
func (c *Collector) Events(nets []*compiler.CompiledNetwork) []trace.Event {
	n := 0
	for _, ch := range c.chunks {
		n += len(ch)
	}
	out := make([]trace.Event, 0, n)
	for _, ch := range c.chunks {
		for _, r := range ch {
			e := trace.Event{
				Engine: kindEngine[r.kind],
				Net:    int(r.net), Layer: int(r.layer), Iter: int(r.iter),
				Start: r.start, End: r.end,
			}
			switch r.kind {
			case kindHostIn:
				e.Name = "host-in"
			case kindHostOut:
				e.Name = "host-out"
			default:
				e.Name = nets[r.net].Label(kindLabel[r.kind], int(r.layer))
			}
			out = append(out, e)
		}
	}
	return out
}

// Merge folds a sub-collector recorded over a chip-local sub-stream
// into c, translating local instance li to global instance remap[li].
// Records whose instance has no valid global slot are dropped.
func (c *Collector) Merge(sub *Collector, remap []int) {
	for _, ch := range sub.chunks {
		for _, r := range ch {
			if int(r.net) >= len(remap) {
				continue
			}
			gi := remap[r.net]
			if gi < 0 || gi >= c.nets {
				continue
			}
			r.net = int32(gi)
			c.add(r)
		}
	}
}

// Input adapts a finished run to the span builder without importing
// the serve package: all slices are indexed by stream entry.
type Input struct {
	// Run labels the sweep point (scheduler@load or scheduler/policy).
	Run string

	// Classes and ClassOf name each entry's request class.
	Classes []string
	ClassOf []int

	// ReqOf maps entries to request ids (dense, ascending); nil means
	// entry index and request id coincide.
	ReqOf []int

	// Phases names each entry's phase ("single", "prefill", "decode");
	// nil means all single-phase.
	Phases []string

	// StreamArrive is each entry's stream arrival cycle; Deadlines
	// each entry's absolute deadline.
	StreamArrive []arch.Cycles
	Deadlines    []arch.Cycles

	// Arrive and Finish are the result's effective arrival and finish
	// cycles (sim.Result.NetArrive / NetFinish).
	Arrive []arch.Cycles
	Finish []arch.Cycles

	// Chip is each entry's routed chip; nil means chip 0. ETA is the
	// dispatcher's predicted completion at routing time; nil means no
	// estimate. Shed marks admission-rejected entries; nil means none.
	Chip []int
	ETA  []arch.Cycles
	Shed []bool
}

// Build attributes every request in the input against the collected
// occupancy intervals. Requests whose entries did not finish (run
// truncated by MaxCycles) are dropped. A nil collector attributes
// every cycle to idle-in-queue.
//
// Allocation is O(requests): the output spans' Entries, Segments,
// Intervals and Totals are cap-limited windows of a few shared slabs,
// and the bucketing, grouping and sweep buffers come from a pool.
func Build(in Input, c *Collector) []RequestSpan {
	n := len(in.ClassOf)
	if n == 0 {
		return nil
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.bucket(c, n)
	sc.group(in.ReqOf, n)

	// A span retained past the call (a Store exemplar or ring entry)
	// keeps alive only the slab chunks its own slices sit in, so the
	// chunks stay small: at most 32 KB each.
	var (
		entries   = slab[EntrySpan]{chunk: 256}
		segments  = slab[Segment]{chunk: 1024}
		intervals = slab[Interval]{chunk: 1024}
	)
	out := make([]RequestSpan, 0, len(sc.bounds)-1)
	for g := 0; g+1 < len(sc.bounds); g++ {
		grp := sc.order[sc.bounds[g]:sc.bounds[g+1]]
		head, last := grp[0], grp[len(grp)-1]
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
		if !finished(in, grp) {
			continue
		}

		sp.Entries = entries.take(len(grp))
		var totals [nKinds]arch.Cycles
		for k, i := range grp {
			a, f := in.Arrive[i], in.Finish[i]
			sums, pieces := sc.attribute(a, f, sc.recs[sc.off[i]:sc.off[i+1]])
			es := &sp.Entries[k]
			*es = EntrySpan{Entry: i, Arrive: a, Finish: f, Segments: carveSegments(&segments, &sums)}
			if in.Phases != nil {
				es.Phase = in.Phases[i]
			}
			if len(pieces) > 0 {
				es.Intervals = intervals.take(len(pieces))
				for j, p := range pieces {
					es.Intervals[j] = Interval{Kind: prioKind[p.prio], Start: p.start, End: p.end}
				}
			}
			for p, cy := range sums {
				totals[p] += cy
			}
		}
		sp.Finish = in.Finish[last]
		sp.Latency = sp.Finish - sp.Arrive
		sp.Missed = sp.Finish > sp.Deadline
		sp.Totals = carveSegments(&segments, &totals)
		out = append(out, sp)
	}
	return out
}

// finished reports whether every entry of a request completed; a run
// truncated by MaxCycles leaves later entries unfinished.
func finished(in Input, grp []int) bool {
	for _, i := range grp {
		if a, f := in.Arrive[i], in.Finish[i]; f < a || (f == 0 && a > 0) {
			return false
		}
	}
	return true
}

// Classification priorities: lower wins when intervals overlap.
// prioQueue labels cycles no interval covers.
const (
	prioPE uint8 = iota
	prioHost
	prioPreempt
	prioHBM
	nPrio

	prioQueue = nPrio
	nKinds    = nPrio + 1
)

var prioKind = [nKinds]string{SegPE, SegHost, SegPreempt, SegHBM, SegQueue}

// reportOrder lists the priorities in SegmentKinds order.
var reportOrder = [nKinds]uint8{prioQueue, prioHBM, prioPE, prioPreempt, prioHost}

// carveSegments returns the non-zero per-kind sums as Segments in
// canonical report order, or nil when every sum is zero.
func carveSegments(s *slab[Segment], sums *[nKinds]arch.Cycles) []Segment {
	k := 0
	for _, cy := range sums {
		if cy > 0 {
			k++
		}
	}
	out := s.take(k)
	k = 0
	for _, p := range reportOrder {
		if sums[p] > 0 {
			out[k] = Segment{Kind: prioKind[p], Cycles: sums[p]}
			k++
		}
	}
	return out
}

// slab hands out cap-limited windows of shared chunk arrays: carving
// many small result slices costs one allocation per chunk of `chunk`
// elements, and an append to one window reallocates instead of
// overwriting the next.
type slab[T any] struct {
	buf   []T
	chunk int
}

func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(n, s.chunk))
	}
	i := len(s.buf)
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

// scratch holds Build's transient buffers, pooled across calls.
type scratch struct {
	off    []int    // entry i's records are recs[off[i]:off[i+1]]
	recs   []record // the log bucketed by instance, log order within each
	order  []int    // entry indices grouped by request
	bounds []int    // group g is order[bounds[g]:bounds[g+1]]
	count  []int
	next   []int
	ids    []int
	bs     []bnd
	pieces []piece
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// ints returns buf resized to n zeroed elements, reusing its storage.
func ints(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// bucket groups the log by instance with one stable counting pass,
// keeping log order within each instance. Records of instances at or
// beyond n are ignored.
func (sc *scratch) bucket(c *Collector, n int) {
	sc.off = ints(sc.off, n+1)
	var chunks [][]record
	if c != nil {
		chunks = c.chunks
	}
	total := 0
	for _, ch := range chunks {
		for _, r := range ch {
			if int(r.net) < n {
				sc.off[r.net+1]++
				total++
			}
		}
	}
	for i := 1; i <= n; i++ {
		sc.off[i] += sc.off[i-1]
	}
	if cap(sc.recs) < total {
		sc.recs = make([]record, total)
	}
	sc.recs = sc.recs[:total]
	sc.next = ints(sc.next, n)
	copy(sc.next, sc.off)
	for _, ch := range chunks {
		for _, r := range ch {
			if int(r.net) < n {
				sc.recs[sc.next[r.net]] = r
				sc.next[r.net]++
			}
		}
	}
}

// group orders the n entries by request — requests in order of first
// appearance, entries in stream order within each — with a counting
// pass over the dense request ids.
func (sc *scratch) group(reqOf []int, n int) {
	sc.order = ints(sc.order, n)
	sc.bounds = append(sc.bounds[:0], 0)
	if reqOf == nil {
		for i := range sc.order {
			sc.order[i] = i
			sc.bounds = append(sc.bounds, i+1)
		}
		return
	}
	ids := reqOf
	for _, r := range reqOf {
		if r < 0 || r >= n {
			ids = sc.densify(reqOf)
			break
		}
	}
	sc.count = ints(sc.count, n)
	sc.next = ints(sc.next, n)
	for _, r := range ids {
		sc.count[r]++
	}
	pos := 0
	for i, r := range ids {
		if sc.count[r] > 0 { // first entry of request r: reserve its run
			sc.next[r] = pos
			pos += sc.count[r]
			sc.count[r] = 0
			sc.bounds = append(sc.bounds, pos)
		}
		sc.order[sc.next[r]] = i
		sc.next[r]++
	}
}

// densify renumbers request ids 0, 1, 2, … in order of first
// appearance, for inputs whose ReqOf is not already dense.
func (sc *scratch) densify(reqOf []int) []int {
	sc.ids = ints(sc.ids, len(reqOf))
	at := make(map[int]int)
	for i, r := range reqOf {
		d, ok := at[r]
		if !ok {
			d = len(at)
			at[r] = d
		}
		sc.ids[i] = d
	}
	return sc.ids
}

// bnd is one sweep boundary: at cycle `at`, priority `prio` gains
// (+1) or loses (-1) one covering interval.
type bnd struct {
	at    arch.Cycles
	prio  uint8
	delta int8
}

func cmpBnd(x, y bnd) int {
	if x.at != y.at {
		return cmp.Compare(x.at, y.at)
	}
	if x.prio != y.prio {
		return int(x.prio) - int(y.prio)
	}
	return int(x.delta) - int(y.delta)
}

// piece is one contiguous labelled slice of an entry window.
type piece struct {
	start, end arch.Cycles
	prio       uint8
}

// attribute partitions [a, f) into labelled pieces using one entry's
// occupancy records. The returned pieces cover the window exactly and
// sums holds the per-priority totals; pieces is valid until the next
// call.
func (sc *scratch) attribute(a, f arch.Cycles, recs []record) (sums [nKinds]arch.Cycles, pieces []piece) {
	sc.pieces = sc.pieces[:0]
	if f <= a {
		return sums, nil
	}
	bs := sc.bs[:0]
	add := func(prio uint8, s, e arch.Cycles) {
		s, e = max(s, a), min(e, f)
		if s < e {
			bs = append(bs, bnd{s, prio, 1}, bnd{e, prio, -1})
		}
	}
	for i, r := range recs {
		switch r.kind {
		case kindPE:
			add(prioPE, r.start, r.end)
		case kindPESplit:
			add(prioPE, r.start, r.end)
			add(prioPreempt, r.end, resumeOf(recs, i, f))
		case kindHostIn, kindHostOut:
			add(prioHost, r.start, r.end)
		case kindMem:
			add(prioHBM, r.start, r.end)
		}
	}
	slices.SortFunc(bs, cmpBnd)
	sc.bs = bs

	var counts [nPrio]int
	cur := a
	for i := 0; i < len(bs); {
		at := bs[i].at
		sc.emit(&sums, cur, at, top(&counts))
		if at > cur {
			cur = at
		}
		for i < len(bs) && bs[i].at == at {
			counts[bs[i].prio] += int(bs[i].delta)
			i++
		}
	}
	sc.emit(&sums, cur, f, top(&counts))
	return sums, sc.pieces
}

// resumeOf returns when the split-halted compute block recs[i] is
// preempted out until: the start of the next PE interval of the same
// (layer, iter), or f when none follows.
func resumeOf(recs []record, i int, f arch.Cycles) arch.Cycles {
	iv := recs[i]
	resume := f
	for j, r := range recs {
		if j == i || (r.kind != kindPE && r.kind != kindPESplit) || r.layer != iv.layer || r.iter != iv.iter {
			continue
		}
		if r.start >= iv.end && r.start < resume {
			resume = r.start
		}
	}
	return resume
}

// top returns the winning priority among the covering intervals, or
// prioQueue when none covers.
func top(counts *[nPrio]int) uint8 {
	for p, n := range counts {
		if n > 0 {
			return uint8(p)
		}
	}
	return prioQueue
}

func (sc *scratch) emit(sums *[nKinds]arch.Cycles, from, to arch.Cycles, prio uint8) {
	if to <= from {
		return
	}
	sums[prio] += to - from
	if n := len(sc.pieces); n > 0 && sc.pieces[n-1].prio == prio && sc.pieces[n-1].end == from {
		sc.pieces[n-1].end = to
		return
	}
	sc.pieces = append(sc.pieces, piece{from, to, prio})
}
