// Package rtrace is the per-request span tracer: it turns the
// engine's occupancy events into an attributed span per served
// request, decomposing end-to-end latency cycle-exactly into named
// segments (idle-in-queue, hbm-bound, pe-bound, preempted-out, host).
//
// The pipeline has three pieces:
//
//   - Collector implements sim.OccupancyTracer, so the engine hands it
//     each occupancy interval by kind (sim.Occupancy) with no names,
//     and appends every interval to one flat log of fixed-size typed
//     records (kind, instance, layer, iter, start, end), growing a
//     chunk at a time and counting each instance's records. It is
//     attached per run (per chip in a cluster) and merged into stream
//     coordinates. It is the only occupancy recorder: Events replays
//     the log, labels resolved at export time, for the Gantt,
//     utilization and Chrome renderers in package trace.
//   - Build folds a stream's metadata plus a finished sim.Result and
//     a Collector into []RequestSpan: one span per request, one entry
//     span per phase (prefill, each decode step), each partitioned
//     into segments that sum exactly to finish − arrival. It places
//     the log's positions by instance from the collector's counts and
//     groups entries by request with a counting pass, labels each
//     entry window with one pass over its records and a cursor sweep
//     (no sort on an engine's log), and carves the spans' slices from
//     a few shared slabs of pointer-free Segments and Intervals.
//   - Store (store.go) retains bounded state across runs: worst-N
//     tail exemplars per class, a sampled ring of recent spans, and
//     running attribution aggregates.
//
// Tracing allocates O(requests), not O(events): the engine hands over
// typed kinds (a plain sim.Tracer gets labels resolved once per
// compiled network), the log never copies what it holds, and Build
// keeps its per-entry sums in fixed arrays indexed by SegKind and its
// working buffers in a pool.
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
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/sim"
	"aimt/internal/trace"
)

// SegKind is a segment label: where one attributed cycle went. It is
// one byte, so the slabs Build carves spans from hold no pointers; it
// marshals to and from its name, so JSON and text output carry the
// names below. The values are in canonical report order.
type SegKind uint8

const (
	// SegQueue is time the entry was ready but no engine was doing its
	// work: waiting for AVL_CB credit, for the PE array, or for its
	// turn in the memory-block schedule.
	SegQueue SegKind = iota

	// SegHBM is time the HBM channel was fetching this entry's own
	// memory blocks while its PE work was stalled on them.
	SegHBM

	// SegPE is time the PE array was executing this entry's compute
	// blocks.
	SegPE

	// SegPreempt is time between a split-halted compute block and its
	// resumption: the entry was preempted out by a higher-priority
	// competitor.
	SegPreempt

	// SegHost is PCIe transfer time for this entry's input and output.
	SegHost

	nSegKinds
)

// segNames names every segment kind, in canonical report order.
var segNames = [nSegKinds]string{"idle-in-queue", "hbm-bound", "pe-bound", "preempted-out", "host"}

// SegmentKinds lists every segment kind in canonical report order.
var SegmentKinds = [nSegKinds]SegKind{SegQueue, SegHBM, SegPE, SegPreempt, SegHost}

// String returns the kind's name.
func (k SegKind) String() string {
	if k < nSegKinds {
		return segNames[k]
	}
	return "SegKind(" + strconv.Itoa(int(k)) + ")"
}

// MarshalText encodes the kind as its name.
func (k SegKind) MarshalText() ([]byte, error) {
	if k >= nSegKinds {
		return nil, fmt.Errorf("rtrace: invalid segment kind %d", k)
	}
	return []byte(segNames[k]), nil
}

// UnmarshalText decodes a kind from its name.
func (k *SegKind) UnmarshalText(b []byte) error {
	for i, name := range segNames {
		if string(b) == name {
			*k = SegKind(i)
			return nil
		}
	}
	return fmt.Errorf("rtrace: unknown segment kind %q", b)
}

// Segment is one attributed share of an entry or request window.
type Segment struct {
	Kind   SegKind     `json:"kind"`
	Cycles arch.Cycles `json:"cycles"`
}

// Interval is one contiguous attributed slice of an entry's window,
// suitable for rendering as a waterfall bar or a Perfetto slice.
type Interval struct {
	Kind  SegKind     `json:"kind"`
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
	// entries telescope, Totals sum exactly to Latency. A single-entry
	// request's Totals share their storage with its entry's Segments.
	Totals []Segment `json:"totals"`

	// Entries holds the per-phase spans in execution order.
	Entries []EntrySpan `json:"entries"`
}

// record is one occupancy interval in the collector's log. Its kind is
// the engine's: the resource, with the CB-split identity and the host
// transfer direction decided when the interval is emitted.
type record struct {
	start, end       arch.Cycles
	net, layer, iter int32
	kind             sim.Occupancy
}

// logChunk is the record count of one log chunk. The log grows a
// chunk at a time, so logging never copies what is already recorded.
// Record p of the log is chunks[p>>logShift][p&(logChunk-1)].
const (
	logShift = 11
	logChunk = 1 << logShift
)

// Collector logs engine occupancy events for a stream of network
// instances. It implements sim.OccupancyTracer; attach it via
// sim.Options.Tracer. It is the only occupancy recorder: span
// attribution (Build) and every timeline export (Events) read its log.
// The log is one append-only sequence of fixed-size typed records held
// in fixed-size chunks: recording costs one allocation per logChunk
// events and none per event, and counts each instance's records as
// they arrive. The zero Collector is unusable — size it with
// NewCollector.
type Collector struct {
	nets   int
	n      int        // records logged
	tail   []record   // the chunk being filled, chunks' last
	chunks [][]record // logChunk records each; the log is their first n
	count  []int32    // records logged per instance
}

// NewCollector sizes a collector for a stream of nets instances.
func NewCollector(nets int) *Collector {
	return &Collector{nets: nets, count: make([]int32, max(nets, 0))}
}

// Occupied implements sim.OccupancyTracer: the engine's typed path,
// which names nothing. Intervals of out-of-range instances and empty
// intervals are dropped.
func (c *Collector) Occupied(kind sim.Occupancy, net, layer, iter int, start, end arch.Cycles) {
	if net < 0 || net >= c.nets || end <= start {
		return
	}
	c.add(record{start, end, int32(net), int32(layer), int32(iter), kind})
}

// Event implements sim.Tracer for callers that name their intervals:
// it decodes the engine name, and for the PE array and the host link
// the interval's name too, into the record's kind. Events for
// out-of-range instances (host warm-up probes, etc.) and unknown
// engines are dropped.
func (c *Collector) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	var kind sim.Occupancy
	switch engine {
	case "pe":
		kind = sim.OccPE
		if strings.HasPrefix(name, "CB(split)") {
			kind = sim.OccPESplit
		}
	case "mem":
		kind = sim.OccMem
	case "host":
		kind = sim.OccHostIn
		if name == "host-out" {
			kind = sim.OccHostOut
		}
	default:
		return
	}
	c.Occupied(kind, net, layer, iter, start, end)
}

// add appends r, whose instance is in range, to the log.
func (c *Collector) add(r record) {
	i := c.n & (logChunk - 1)
	if i == 0 {
		c.tail = make([]record, logChunk)
		c.chunks = append(c.chunks, c.tail)
	}
	c.tail[i] = r
	c.n++
	c.count[r.net]++
}

// chunk returns the logged records of chunk k.
func (c *Collector) chunk(k int) []record {
	return c.chunks[k][:min(logChunk, c.n-k<<logShift)]
}

// Events rebuilds the logged occupancy intervals in log order, the
// order the engine emitted them, for the timeline renderers in package
// trace. Labels are resolved at export time, as the engine names them
// for a plain sim.Tracer: nets[i] must be the compiled network of
// instance i, and a block's name is its layer's label ("MB:", "CB:" or
// "CB(split):" plus the layer name); host transfers are named
// "host-in" or "host-out".
func (c *Collector) Events(nets []*compiler.CompiledNetwork) []trace.Event {
	out := make([]trace.Event, 0, c.n)
	for k := range c.chunks {
		for _, r := range c.chunk(k) {
			out = append(out, trace.Event{
				Engine: r.kind.Engine(),
				Name:   r.kind.Name(nets[r.net], int(r.layer)),
				Net:    int(r.net), Layer: int(r.layer), Iter: int(r.iter),
				Start: r.start, End: r.end,
			})
		}
	}
	return out
}

// Merge folds a sub-collector recorded over a chip-local sub-stream
// into c, translating local instance li to global instance remap[li].
// Records whose instance has no valid global slot are dropped.
func (c *Collector) Merge(sub *Collector, remap []int) {
	for k := range sub.chunks {
		for _, r := range sub.chunk(k) {
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
	log := sc.bucket(c, n)
	sc.group(in.ReqOf, n)

	// A span retained past the call (a Store exemplar or ring entry)
	// keeps alive only the slab chunks its own slices sit in, so the
	// chunks are small objects, under 32 KB each: 256 EntrySpans of 88
	// bytes, 1024 Segments of 16 bytes, 1024 Intervals of 24 bytes.
	// Segments and Intervals hold no pointers, so the collector never
	// scans their chunks.
	var (
		entries   = slab[EntrySpan]{chunk: 256}
		segments  = slab[Segment]{chunk: 1024}
		intervals = slab[Interval]{chunk: 1024}
	)
	out := make([]RequestSpan, 0, len(sc.bounds)-1)
	for g := 0; g+1 < len(sc.bounds); g++ {
		grp := sc.order[sc.bounds[g]:sc.bounds[g+1]]
		head, last := grp[0], grp[len(grp)-1]
		shed := in.Shed != nil && in.Shed[head]
		if !shed && !finished(in, grp) {
			continue
		}
		out = append(out, RequestSpan{
			Req:      head,
			Run:      in.Run,
			Class:    in.Classes[in.ClassOf[head]],
			Arrive:   in.StreamArrive[head],
			Deadline: in.Deadlines[last],
		})
		sp := &out[len(out)-1]
		if in.ReqOf != nil {
			sp.Req = in.ReqOf[head]
		}
		if in.Chip != nil {
			sp.Chip = in.Chip[head]
		}
		if in.ETA != nil {
			sp.ETA = in.ETA[head]
		}
		if shed {
			sp.Shed = true
			sp.Chip = -1
			continue
		}

		sp.Entries = entries.take(len(grp))
		var totals [nSegKinds]arch.Cycles
		for k, i := range grp {
			a, f := in.Arrive[i], in.Finish[i]
			sums, pieces := sc.attribute(a, f, log, sc.pos[sc.off[i]:sc.off[i+1]])
			es := &sp.Entries[k]
			*es = EntrySpan{Entry: i, Arrive: a, Finish: f, Segments: carveSegments(&segments, &sums), Intervals: intervals.take(len(pieces))}
			copy(es.Intervals, pieces)
			if in.Phases != nil {
				es.Phase = in.Phases[i]
			}
			for kind, cy := range sums {
				totals[kind] += cy
			}
		}
		sp.Finish = in.Finish[last]
		sp.Latency = sp.Finish - sp.Arrive
		sp.Missed = sp.Finish > sp.Deadline
		if len(grp) == 1 {
			sp.Totals = sp.Entries[0].Segments // equal sums, one carve
		} else {
			sp.Totals = carveSegments(&segments, &totals)
		}
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
)

// prioKind maps a priority to the segment kind it labels.
var prioKind = [nPrio + 1]SegKind{SegPE, SegHost, SegPreempt, SegHBM, SegQueue}

// carveSegments returns the non-zero per-kind sums as Segments in
// canonical report order, or nil when every sum is zero.
func carveSegments(s *slab[Segment], sums *[nSegKinds]arch.Cycles) []Segment {
	k := 0
	for _, cy := range sums {
		if cy > 0 {
			k++
		}
	}
	out := s.take(k)
	k = 0
	for kind, cy := range sums {
		if cy > 0 {
			out[k] = Segment{Kind: SegKind(kind), Cycles: cy}
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
	off     []int   // entry i's log positions are pos[off[i]:off[i+1]]
	pos     []int32 // log positions bucketed by instance, log order within each
	order   []int   // entry indices grouped by request
	bounds  []int   // group g is order[bounds[g]:bounds[g+1]]
	count   []int
	next    []int
	ids     []int
	streams [nPrio][]span // one entry's clipped intervals per priority
	splits  []halt        // one entry's split-halted compute blocks
	open    []int         // indices into splits still awaiting a resumption

	// One entry's labelling sweep: a cursor per priority stream, the
	// per-kind sums and the pieces.
	cur    [nPrio]int
	sums   [nSegKinds]arch.Cycles
	pieces []Interval
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

// bucket groups the log's positions by instance, keeping log order
// within each instance, with one placement pass: the collector counted
// each instance's records as they arrived. It returns the log's chunks.
// Records of instances at or beyond n are ignored.
func (sc *scratch) bucket(c *Collector, n int) [][]record {
	sc.off = ints(sc.off, n+1)
	sc.pos = sc.pos[:0]
	if c == nil {
		return nil
	}
	// off[i+1] starts at instance i's first slot and is its cursor, so
	// the pass leaves it at instance i's end.
	total := 0
	for i := range sc.off[1:] {
		sc.off[i+1] = total
		if i < c.nets {
			total += int(c.count[i])
		}
	}
	if cap(sc.pos) < total {
		sc.pos = make([]int32, total)
	}
	sc.pos = sc.pos[:total]
	var p int32
	for k := range c.chunks {
		ch := c.chunk(k)
		for i := range ch {
			if net := int(ch[i].net); net < n {
				sc.pos[sc.off[net+1]] = p
				sc.off[net+1]++
			}
			p++
		}
	}
	return c.chunks
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

// span is one clipped interval [start, end) of a priority stream.
type span struct{ start, end arch.Cycles }

// halt is one split-halted compute block of the entry being
// attributed: it is preempted out from end until resume, the start of
// the next PE interval of the same (layer, iter).
type halt struct {
	end, resume arch.Cycles
	layer, iter int32
	pos         int32 // the split's log position
}

// attribute partitions [a, f) into labelled pieces using one entry's
// occupancy records, given by their log positions in log order. The
// returned pieces cover the window exactly and sums holds the per-kind
// totals; pieces is valid until the next call.
//
// One pass over the records in log order builds the four per-priority
// interval streams, clipped to the window. Each engine serializes its
// resource and logs an interval when it completes, so a stream
// normally arrives in start order, and the pass merges an interval
// that touches or overlaps the stream's last one as it pushes it; only
// a stream that arrived out of order is sorted and unioned afterwards.
// The same pass pairs each split with its resumption: when the entry's
// PE records arrive in start order, the first later PE record of the
// same (layer, iter) that starts at or after the halt is the
// resumption, and otherwise every split is paired by a rescan. A sweep
// then labels the window with the pe stream and fills each of its gaps
// from the priorities below (see fill), so every cycle gets the lowest
// covering priority.
func (sc *scratch) attribute(a, f arch.Cycles, log [][]record, pos []int32) (sums [nSegKinds]arch.Cycles, pieces []Interval) {
	if f <= a {
		return sums, nil
	}
	for p := range sc.streams {
		sc.streams[p] = sc.streams[p][:0]
	}
	sc.splits, sc.open = sc.splits[:0], sc.open[:0]
	var unsorted [nPrio]bool
	push := func(prio uint8, s, e arch.Cycles) {
		s, e = max(s, a), min(e, f)
		if s >= e {
			return
		}
		st := sc.streams[prio]
		if n := len(st); n > 0 {
			if last := &st[n-1]; s < last.start {
				unsorted[prio] = true
			} else if s <= last.end {
				last.end = max(last.end, e)
				return
			}
		}
		sc.streams[prio] = append(st, span{s, e})
	}

	peInOrder, lastPE := true, arch.Cycles(math.MinInt64)
	for _, p := range pos {
		r := &log[p>>logShift][p&(logChunk-1)]
		switch r.kind {
		case sim.OccPE, sim.OccPESplit:
			peInOrder = peInOrder && r.start >= lastPE
			lastPE = r.start
			if len(sc.open) > 0 {
				sc.resume(r)
			}
			push(prioPE, r.start, r.end)
			if r.kind == sim.OccPESplit {
				sc.open = append(sc.open, len(sc.splits))
				sc.splits = append(sc.splits, halt{end: r.end, resume: f, layer: r.layer, iter: r.iter, pos: p})
			}
		case sim.OccHostIn, sim.OccHostOut:
			push(prioHost, r.start, r.end)
		case sim.OccMem:
			push(prioHBM, r.start, r.end)
		}
	}
	if !peInOrder {
		for i := range sc.splits {
			sc.splits[i].resume = resumeOf(log, pos, &sc.splits[i], f)
		}
	}
	for _, h := range sc.splits {
		push(prioPreempt, h.end, h.resume)
	}

	for p := range sc.streams {
		if unsorted[p] {
			slices.SortFunc(sc.streams[p], func(x, y span) int { return cmp.Compare(x.start, y.start) })
			sc.streams[p] = union(sc.streams[p])
		}
	}
	sc.cur, sc.sums = [nPrio]int{}, [nSegKinds]arch.Cycles{}
	sc.pieces = sc.pieces[:0]
	sc.fill(0, a, f)
	return sc.sums, sc.pieces
}

// fill labels [t, end) with priority p's stream and hands each gap in
// it to the priorities below, so each cycle gets the lowest priority
// that covers it and uncovered cycles are idle-in-queue. The gaps
// arrive in time order at every level, so each stream's cursor makes
// one pass over the entry.
func (sc *scratch) fill(p uint8, t, end arch.Cycles) {
	if p == nPrio {
		sc.emit(t, end, SegQueue)
		return
	}
	st, c := sc.streams[p], sc.cur[p]
	for c < len(st) && st[c].end <= t {
		c++
	}
	for t < end {
		if c == len(st) || st[c].start >= end {
			sc.fill(p+1, t, end)
			break
		}
		if s := st[c].start; s > t {
			sc.fill(p+1, t, s)
			t = s
		}
		e := min(st[c].end, end)
		sc.emit(t, e, prioKind[p])
		t = e
		if st[c].end <= end {
			c++
		}
	}
	sc.cur[p] = c
}

// resume pairs the open splits with PE record r: a split of the same
// (layer, iter) that halted at or before r starts resumes at r. With
// the entry's PE records in start order no later record can resume it
// earlier, so the split closes.
func (sc *scratch) resume(r *record) {
	for i := 0; i < len(sc.open); {
		h := &sc.splits[sc.open[i]]
		if h.layer == r.layer && h.iter == r.iter && r.start >= h.end {
			h.resume = min(h.resume, r.start)
			last := len(sc.open) - 1
			sc.open[i] = sc.open[last]
			sc.open = sc.open[:last]
			continue
		}
		i++
	}
}

// resumeOf returns when split h is preempted out until, by a rescan of
// the entry's records: the earliest start, at or after the halt, of
// another PE interval of the same (layer, iter), or f when none
// follows.
func resumeOf(log [][]record, pos []int32, h *halt, f arch.Cycles) arch.Cycles {
	resume := f
	for _, p := range pos {
		r := &log[p>>logShift][p&(logChunk-1)]
		if p == h.pos || (r.kind != sim.OccPE && r.kind != sim.OccPESplit) || r.layer != h.layer || r.iter != h.iter {
			continue
		}
		if r.start >= h.end && r.start < resume {
			resume = r.start
		}
	}
	return resume
}

// union merges a start-ordered stream's overlapping and touching
// intervals in place.
func union(st []span) []span {
	if len(st) == 0 {
		return st
	}
	w := 0
	for _, x := range st[1:] {
		if x.start <= st[w].end {
			st[w].end = max(st[w].end, x.end)
			continue
		}
		w++
		st[w] = x
	}
	return st[:w+1]
}

func (sc *scratch) emit(from, to arch.Cycles, kind SegKind) {
	sc.sums[kind] += to - from
	if n := len(sc.pieces); n > 0 && sc.pieces[n-1].Kind == kind && sc.pieces[n-1].End == from {
		sc.pieces[n-1].End = to
		return
	}
	sc.pieces = append(sc.pieces, Interval{kind, from, to})
}
