package rtrace

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/sim"
)

// ev is one occupancy event as the engine emits it.
type ev struct {
	engine, name     string
	net, layer, iter int
	start, end       arch.Cycles
}

func pe(layer, iter int, s, e arch.Cycles) ev {
	return ev{"pe", "CB:l", 0, layer, iter, s, e}
}

func split(layer, iter int, s, e arch.Cycles) ev {
	return ev{"pe", "CB(split):l", 0, layer, iter, s, e}
}

func mem(s, e arch.Cycles) ev  { return ev{"mem", "MB:l", 0, 0, 0, s, e} }
func host(s, e arch.Cycles) ev { return ev{"host", "host-in", 0, -1, -1, s, e} }

// tracer is what both collectors implement.
type tracer interface {
	Event(engine, name string, net, layer, iter int, start, end arch.Cycles)
}

func feed(t tracer, evs []ev) {
	for _, e := range evs {
		t.Event(e.engine, e.name, e.net, e.layer, e.iter, e.start, e.end)
	}
}

// single builds the input of one single-entry request whose window is
// [a, f).
func single(a, f arch.Cycles) Input {
	return Input{
		Classes:      []string{"c"},
		ClassOf:      []int{0},
		StreamArrive: []arch.Cycles{a},
		Deadlines:    []arch.Cycles{f},
		Arrive:       []arch.Cycles{a},
		Finish:       []arch.Cycles{f},
	}
}

func iv(kind SegKind, s, e arch.Cycles) Interval { return Interval{Kind: kind, Start: s, End: e} }

// segmentsOf sums intervals per kind in canonical report order.
func segmentsOf(ivs []Interval) []Segment {
	var out []Segment
	for _, k := range SegmentKinds {
		var sum arch.Cycles
		for _, x := range ivs {
			if x.Kind == k {
				sum += x.End - x.Start
			}
		}
		if sum > 0 {
			out = append(out, Segment{Kind: k, Cycles: sum})
		}
	}
	return out
}

// TestAttributionRules pins each rule of the boundary sweep on one
// entry: the priority order pe > host > preempted > hbm with queue as
// the remainder, clipping to the window, and split pairing.
func TestAttributionRules(t *testing.T) {
	cases := []struct {
		name string
		a, f arch.Cycles
		evs  []ev
		want []Interval
	}{
		{"no events is all queue", 0, 100, nil,
			[]Interval{iv(SegQueue, 0, 100)}},
		{"pe beats hbm", 0, 100, []ev{mem(0, 60), pe(1, 0, 40, 100)},
			[]Interval{iv(SegHBM, 0, 40), iv(SegPE, 40, 100)}},
		{"pe beats host", 0, 100, []ev{host(0, 50), pe(1, 0, 20, 30)},
			[]Interval{iv(SegHost, 0, 20), iv(SegPE, 20, 30), iv(SegHost, 30, 50), iv(SegQueue, 50, 100)}},
		{"host beats preempted", 0, 100, []ev{split(1, 0, 0, 10), host(20, 30), pe(1, 0, 50, 60)},
			[]Interval{iv(SegPE, 0, 10), iv(SegPreempt, 10, 20), iv(SegHost, 20, 30),
				iv(SegPreempt, 30, 50), iv(SegPE, 50, 60), iv(SegQueue, 60, 100)}},
		{"preempted beats hbm", 0, 100, []ev{split(1, 0, 0, 10), mem(10, 70), pe(1, 0, 50, 60)},
			[]Interval{iv(SegPE, 0, 10), iv(SegPreempt, 10, 50), iv(SegPE, 50, 60),
				iv(SegHBM, 60, 70), iv(SegQueue, 70, 100)}},
		{"clipped to the window", 100, 200, []ev{pe(1, 0, 50, 150), mem(180, 300), host(0, 90)},
			[]Interval{iv(SegPE, 100, 150), iv(SegQueue, 150, 180), iv(SegHBM, 180, 200)}},
		{"split pairs the next PE of the same layer and iter", 0, 100, []ev{
			split(1, 0, 0, 10),
			pe(1, 1, 20, 30), // other iter: not the resumption
			pe(2, 0, 30, 40), // other layer: not the resumption
			pe(1, 0, 80, 90), // same block, but not the first after the halt
			pe(1, 0, 60, 70), // the resumption
		}, []Interval{iv(SegPE, 0, 10), iv(SegPreempt, 10, 20), iv(SegPE, 20, 40),
			iv(SegPreempt, 40, 60), iv(SegPE, 60, 70), iv(SegQueue, 70, 80),
			iv(SegPE, 80, 90), iv(SegQueue, 90, 100)}},
		{"split without resumption is preempted to the window end", 0, 100, []ev{split(1, 0, 0, 10)},
			[]Interval{iv(SegPE, 0, 10), iv(SegPreempt, 10, 100)}},
		{"adjacent intervals of one kind merge", 0, 30, []ev{pe(1, 0, 0, 10), pe(1, 1, 10, 20), mem(20, 25), mem(25, 30)},
			[]Interval{iv(SegPE, 0, 20), iv(SegHBM, 20, 30)}},
		{"zero-length window has no segments", 50, 50, []ev{pe(1, 0, 0, 100)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(1)
			feed(c, tc.evs)
			spans := Build(single(tc.a, tc.f), c)
			if len(spans) != 1 || len(spans[0].Entries) != 1 {
				t.Fatalf("got %d spans, want one single-entry span", len(spans))
			}
			sp, e := spans[0], spans[0].Entries[0]
			if !reflect.DeepEqual(e.Intervals, tc.want) {
				t.Errorf("intervals %v, want %v", e.Intervals, tc.want)
			}
			want := segmentsOf(tc.want)
			if !reflect.DeepEqual(e.Segments, want) || !reflect.DeepEqual(sp.Totals, want) {
				t.Errorf("segments %v, totals %v, want %v", e.Segments, sp.Totals, want)
			}
			if sp.Latency != tc.f-tc.a {
				t.Errorf("latency %d, want %d", sp.Latency, tc.f-tc.a)
			}
		})
	}
}

// TestEventsDropped pins which events the collector ignores:
// zero-length and inverted intervals, instances outside the stream,
// and engines it does not know.
func TestEventsDropped(t *testing.T) {
	c := NewCollector(1)
	feed(c, []ev{
		{"pe", "CB:l", 0, 1, 0, 40, 40},  // zero length
		{"mem", "MB:l", 0, 1, 0, 60, 50}, // inverted
		{"pe", "CB:l", -1, 1, 0, 0, 100}, // instance below the stream
		{"pe", "CB:l", 1, 1, 0, 0, 100},  // instance past the stream
		{"dma", "x", 0, 1, 0, 0, 100},    // unknown engine
	})
	spans := Build(single(0, 100), c)
	if want := []Interval{iv(SegQueue, 0, 100)}; !reflect.DeepEqual(spans[0].Entries[0].Intervals, want) {
		t.Errorf("intervals %v, want %v", spans[0].Entries[0].Intervals, want)
	}
}

// TestMerge pins Merge's remapping: each sub-collector instance lands
// on its global slot next to what the global collector already holds,
// and instances with a negative, out-of-range or missing slot drop.
func TestMerge(t *testing.T) {
	sub := NewCollector(4)
	for net := 0; net < 4; net++ {
		sub.Event("pe", "CB:l", net, 1, 0, arch.Cycles(10*net), arch.Cycles(10*net+5))
	}
	c := NewCollector(3)
	c.Event("mem", "MB:l", 2, 1, 0, 90, 100)
	// Local 0 -> global 2, local 1 dropped (negative), local 2 dropped
	// (past the global stream), local 3 dropped (no remap entry).
	c.Merge(sub, []int{2, -1, 7})

	in := Input{
		Classes:      []string{"c"},
		ClassOf:      []int{0, 0, 0},
		StreamArrive: []arch.Cycles{0, 0, 0},
		Deadlines:    []arch.Cycles{100, 100, 100},
		Arrive:       []arch.Cycles{0, 0, 0},
		Finish:       []arch.Cycles{100, 100, 100},
	}
	spans := Build(in, c)
	queue := []Interval{iv(SegQueue, 0, 100)}
	for i, want := range [][]Interval{
		queue,
		queue,
		{iv(SegPE, 0, 5), iv(SegQueue, 5, 90), iv(SegHBM, 90, 100)},
	} {
		if got := spans[i].Entries[0].Intervals; !reflect.DeepEqual(got, want) {
			t.Errorf("instance %d: intervals %v, want %v", i, got, want)
		}
	}
}

// TestBuildGroupsAndDrops pins request grouping and the span-level
// rules: entries group by request in order of first appearance, shed
// requests keep a span with no entries, and a request with any
// unfinished entry is dropped.
func TestBuildGroupsAndDrops(t *testing.T) {
	in := Input{
		Run:          "r",
		Classes:      []string{"a", "b"},
		ClassOf:      []int{0, 1, 0, 1, 1, 0, 0},
		ReqOf:        []int{0, 1, 0, 2, 1, 3, 4},
		Phases:       []string{"prefill", "single", "decode", "single", "decode", "single", "single"},
		StreamArrive: []arch.Cycles{0, 5, 0, 7, 5, 9, 11},
		Deadlines:    []arch.Cycles{50, 60, 70, 80, 90, 100, 110},
		Arrive:       []arch.Cycles{0, 5, 20, 7, 30, 9, 11},
		// Request 3 was truncated (finish 0 after a positive arrival),
		// request 4 finished before it arrived.
		Finish: []arch.Cycles{20, 30, 40, 60, 45, 0, 10},
		Chip:   []int{1, 0, 1, 1, 0, 0, 0},
		Shed:   []bool{false, false, false, true, false, false, false},
	}
	spans := Build(in, NewCollector(len(in.ClassOf)))
	var reqs []int
	for _, sp := range spans {
		reqs = append(reqs, sp.Req)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(reqs, want) {
		t.Fatalf("span requests %v, want %v", reqs, want)
	}
	for i, want := range [][]int{{0, 2}, {1, 4}, nil} {
		var got []int
		for _, e := range spans[i].Entries {
			got = append(got, e.Entry)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %d: entries %v, want %v", spans[i].Req, got, want)
		}
	}
	if sp := spans[0]; sp.Latency != 40 || sp.Deadline != 70 || sp.Chip != 1 || sp.Class != "a" {
		t.Errorf("request 0: %+v", sp)
	}
	if sp := spans[2]; !sp.Shed || sp.Chip != -1 || sp.Latency != 0 {
		t.Errorf("shed request: %+v", sp)
	}
	if !reflect.DeepEqual(spans, refBuild(in, newRefCollector(len(in.ClassOf)))) {
		t.Error("Build disagrees with the reference builder")
	}
}

// TestBuildWindowsAreCapLimited pins that the slab-carved slices of
// one span cannot reach into the next: appending to them reallocates.
func TestBuildWindowsAreCapLimited(t *testing.T) {
	in := Input{
		Classes:      []string{"c"},
		ClassOf:      []int{0, 0},
		StreamArrive: []arch.Cycles{0, 0},
		Deadlines:    []arch.Cycles{100, 100},
		Arrive:       []arch.Cycles{0, 0},
		Finish:       []arch.Cycles{100, 100},
	}
	c := NewCollector(2)
	c.Event("pe", "CB:l", 0, 1, 0, 10, 20)
	c.Event("pe", "CB:l", 1, 1, 0, 30, 40)
	spans := Build(in, c)
	want := refBuild(in, refOf(c, 2))
	_ = append(spans[0].Entries, EntrySpan{Entry: -1})
	_ = append(spans[0].Entries[0].Segments, Segment{Kind: SegHost, Cycles: 1})
	_ = append(spans[0].Entries[0].Intervals, Interval{Kind: SegHost})
	_ = append(spans[0].Totals, Segment{Kind: SegHost, Cycles: 1})
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("append to span 0 changed span 1: %+v", spans[1])
	}
}

// refOf replays a collector's log into a reference collector.
func refOf(c *Collector, nets int) *refCollector {
	rc := newRefCollector(nets)
	for k := range c.chunks {
		for _, r := range c.chunk(k) {
			name := "CB:l"
			if r.kind == sim.OccPESplit {
				name = "CB(split):l"
			}
			rc.Event(r.kind.Engine(), name, int(r.net), int(r.layer), int(r.iter), r.start, r.end)
		}
	}
	return rc
}

// randomRun draws a stream of requests — single-shot ones and chains
// of entries whose arrivals telescope — plus occupancy events around
// their windows: overlapping PE, HBM and host intervals, CB splits
// with and without resumptions, events that straddle or miss the
// window, and a few the collector must drop.
func randomRun(rng *rand.Rand) (Input, []ev) {
	var in Input
	in.Run = "rand"
	in.Classes = []string{"x", "y", "z"}
	requests := 1 + rng.Intn(12)
	var evs []ev
	dense := rng.Intn(3) > 0
	for r := 0; r < requests; r++ {
		class := rng.Intn(len(in.Classes))
		arrive := arch.Cycles(rng.Intn(400))
		entries := 1
		if rng.Intn(2) == 0 {
			entries += rng.Intn(4)
		}
		id := r
		if !dense {
			id = 1000 - 7*r
		}
		at := arrive
		for k := 0; k < entries; k++ {
			net := len(in.ClassOf)
			finish := at + arch.Cycles(rng.Intn(300))
			if rng.Intn(25) == 0 {
				finish = 0 // truncated: never finished
			}
			in.ClassOf = append(in.ClassOf, class)
			in.ReqOf = append(in.ReqOf, id)
			in.Phases = append(in.Phases, []string{"prefill", "decode"}[min(k, 1)])
			in.StreamArrive = append(in.StreamArrive, arrive)
			in.Deadlines = append(in.Deadlines, arrive+arch.Cycles(rng.Intn(500)))
			in.Arrive = append(in.Arrive, at)
			in.Finish = append(in.Finish, finish)
			in.Chip = append(in.Chip, rng.Intn(4))
			in.ETA = append(in.ETA, arch.Cycles(rng.Intn(1000)))
			in.Shed = append(in.Shed, rng.Intn(15) == 0)
			for j := rng.Intn(14); j > 0; j-- {
				s := at - 50 + arch.Cycles(rng.Intn(400))
				e := s + arch.Cycles(rng.Intn(80))
				if rng.Intn(20) == 0 {
					e = s - arch.Cycles(rng.Intn(5)) // dropped: empty or inverted
				}
				layer, iter := rng.Intn(3), rng.Intn(2)
				switch rng.Intn(5) {
				case 0:
					evs = append(evs, ev{"pe", "CB(split):l", net, layer, iter, s, e})
				case 1:
					evs = append(evs, ev{"pe", "CB:l", net, layer, iter, s, e})
				case 2:
					evs = append(evs, ev{"mem", "MB:l", net, layer, iter, s, e})
				case 3:
					evs = append(evs, ev{"host", "host-out", net, -1, -1, s, e})
				default:
					evs = append(evs, ev{"pe", "CB:l", net + 1000, layer, iter, s, e}) // dropped: no such instance
				}
			}
			if finish > 0 {
				at = finish
			}
		}
	}
	if rng.Intn(2) == 0 {
		in.ReqOf = nil // one request per entry
	}
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	return in, evs
}

// TestBuildMatchesReference is the differential test: over random
// streams and interval sets, the typed-log collector and counting-pass
// Build produce exactly the spans of the per-instance-slice, sort- and
// map-based reference — directly and through a chip-style Merge.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		in, evs := randomRun(rng)
		n := len(in.ClassOf)

		c, rc := NewCollector(n), newRefCollector(n)
		if trial%2 == 0 {
			feed(c, evs)
			feed(rc, evs)
		} else {
			// Split the instances over two chips and merge them back
			// through remaps that sometimes lose an instance: negative,
			// past the global stream, or cut off the end.
			chipOf, localOf := make([]int, n), make([]int, n)
			var remaps [2][]int
			for g := 0; g < n; g++ {
				ch := rng.Intn(2)
				chipOf[g], localOf[g] = ch, len(remaps[ch])
				remaps[ch] = append(remaps[ch], g)
			}
			subs := [2]*Collector{NewCollector(len(remaps[0])), NewCollector(len(remaps[1]))}
			rsubs := [2]*refCollector{newRefCollector(len(remaps[0])), newRefCollector(len(remaps[1]))}
			for _, e := range evs {
				ch := 0
				if e.net < n {
					ch, e.net = chipOf[e.net], localOf[e.net]
				}
				feed(subs[ch], []ev{e})
				feed(rsubs[ch], []ev{e})
			}
			for ch, remap := range remaps {
				if len(remap) > 0 {
					switch rng.Intn(4) {
					case 0:
						remap[rng.Intn(len(remap))] = -1
					case 1:
						remap[rng.Intn(len(remap))] = n + 5
					case 2:
						remap = remap[:len(remap)-1]
					}
				}
				c.Merge(subs[ch], remap)
				rc.Merge(rsubs[ch], remap)
			}
		}
		got, want := Build(in, c), refBuild(in, rc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: spans differ from the reference\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestSegKindText round-trips every segment kind through its name, in
// JSON too, and pins that an unknown name or kind is an error.
func TestSegKindText(t *testing.T) {
	want := []string{"idle-in-queue", "hbm-bound", "pe-bound", "preempted-out", "host"}
	if len(SegmentKinds) != len(want) {
		t.Fatalf("%d segment kinds, want %d", len(SegmentKinds), len(want))
	}
	for i, k := range SegmentKinds {
		text, err := k.MarshalText()
		if err != nil || string(text) != want[i] || k.String() != want[i] {
			t.Errorf("kind %d: MarshalText %q, %v; String %q; want %q", k, text, err, k.String(), want[i])
		}
		var back SegKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, k)
		}
		js, err := json.Marshal(Segment{Kind: k, Cycles: 7})
		if wantJS := `{"kind":"` + want[i] + `","cycles":7}`; err != nil || string(js) != wantJS {
			t.Errorf("json %s, %v; want %s", js, err, wantJS)
		}
		var seg Segment
		if err := json.Unmarshal(js, &seg); err != nil || seg.Kind != k {
			t.Errorf("json round trip of %s: %v, %v", js, seg, err)
		}
	}
	var k SegKind
	if err := k.UnmarshalText([]byte("pe")); err == nil {
		t.Error("UnmarshalText accepted an unknown name")
	}
	if _, err := SegKind(len(want)).MarshalText(); err == nil {
		t.Error("MarshalText accepted an out-of-range kind")
	}
}
