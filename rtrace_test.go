package aimt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aimt/internal/cluster"
	"aimt/internal/rtrace"
	"aimt/internal/sched"
	"aimt/internal/serve"
	"aimt/internal/trace"
)

// assertSpanReconciles checks the attribution invariant on one span:
// every entry's segments partition [Arrive, Finish) exactly, the
// entry intervals tile the same window contiguously, and the
// request-level totals sum exactly to the end-to-end latency.
func assertSpanReconciles(t *testing.T, sp rtrace.RequestSpan) {
	t.Helper()
	if sp.Shed {
		if len(sp.Entries) != 0 || sp.Latency != 0 || sp.Chip != -1 {
			t.Errorf("req %d: shed span carries entries=%d latency=%d chip=%d", sp.Req, len(sp.Entries), sp.Latency, sp.Chip)
		}
		return
	}
	if sp.Latency != sp.Finish-sp.Arrive {
		t.Errorf("req %d: latency %d != finish-arrive %d", sp.Req, sp.Latency, sp.Finish-sp.Arrive)
	}
	var reqSum Cycles
	for _, s := range sp.Totals {
		reqSum += s.Cycles
	}
	if reqSum != sp.Latency {
		t.Errorf("req %d: segment totals sum to %d, latency is %d", sp.Req, reqSum, sp.Latency)
	}
	for _, e := range sp.Entries {
		var entrySum Cycles
		for _, s := range e.Segments {
			entrySum += s.Cycles
		}
		if want := e.Finish - e.Arrive; entrySum != want {
			t.Errorf("req %d entry %d: segments sum to %d, window is %d", sp.Req, e.Entry, entrySum, want)
		}
		at := e.Arrive
		for _, iv := range e.Intervals {
			if iv.Start != at {
				t.Errorf("req %d entry %d: interval gap at %d (next starts %d)", sp.Req, e.Entry, at, iv.Start)
			}
			if iv.End <= iv.Start {
				t.Errorf("req %d entry %d: empty interval [%d,%d)", sp.Req, e.Entry, iv.Start, iv.End)
			}
			at = iv.End
		}
		if at != e.Finish {
			t.Errorf("req %d entry %d: intervals end at %d, window ends %d", sp.Req, e.Entry, at, e.Finish)
		}
	}
	// Chained entries telescope: the first entry starts at the request
	// arrival and each successor starts where its predecessor ended.
	if len(sp.Entries) > 0 {
		if sp.Entries[0].Arrive != sp.Arrive {
			t.Errorf("req %d: head entry arrives %d, request arrives %d", sp.Req, sp.Entries[0].Arrive, sp.Arrive)
		}
		for i := 1; i < len(sp.Entries); i++ {
			if sp.Entries[i].Arrive != sp.Entries[i-1].Finish {
				t.Errorf("req %d: entry %d arrives %d, predecessor finished %d",
					sp.Req, i, sp.Entries[i].Arrive, sp.Entries[i-1].Finish)
			}
		}
		if sp.Entries[len(sp.Entries)-1].Finish != sp.Finish {
			t.Errorf("req %d: last entry finishes %d, request finishes %d",
				sp.Req, sp.Entries[len(sp.Entries)-1].Finish, sp.Finish)
		}
	}
}

// TestRequestSpansReconcile drives the single-chip serving path under
// every standard scheduler and both stream mixes, and checks that the
// attributed spans account for every cycle: per-entry segments sum
// exactly to the entry window, intervals tile it contiguously, and
// request totals sum exactly to end-to-end latency — the "no
// unexplained cycles" contract of the tracer.
func TestRequestSpansReconcile(t *testing.T) {
	cfg := PaperConfig()
	mixes := []struct {
		name    string
		classes []ServeClass
	}{
		{"cnn-rnn", DefaultServingClasses()},
		{"transformer", TransformerServingClasses()},
	}
	for _, mix := range mixes {
		s, err := serve.NewStream(cfg, mix.classes, ServeStreamOptions{Requests: 120, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range registrySpecs() {
			spec := spec
			t.Run(mix.name+"/"+spec.Name, func(t *testing.T) {
				col := rtrace.NewCollector(len(s.Nets))
				res, err := Run(cfg, s.Nets, spec.New(cfg, s), RunOptions{
					Arrivals:   s.Arrivals,
					ChainAfter: s.ChainAfter,
					Tracer:     col,
				})
				if err != nil {
					t.Fatal(err)
				}
				spans := rtrace.Build(serve.TraceInput(s, res, spec.Name), col)
				if len(spans) != s.Requests {
					t.Fatalf("%d spans for %d requests", len(spans), s.Requests)
				}
				entries := 0
				for _, sp := range spans {
					assertSpanReconciles(t, sp)
					entries += len(sp.Entries)
				}
				if entries != len(s.Nets) {
					t.Errorf("spans cover %d entries, stream has %d", entries, len(s.Nets))
				}
			})
		}
	}
}

// TestClusterSpansReconcile repeats the reconciliation check on the
// cluster path — routing policies, admission control and preemptive
// scheduling included — where spans additionally carry the chip
// choice, the dispatcher's ETA prediction, and shed verdicts.
func TestClusterSpansReconcile(t *testing.T) {
	cfg := PaperConfig()
	classes := DefaultServingClasses()
	classes[0].Priority = 1
	s, err := serve.NewStream(cfg, classes, ServeStreamOptions{Requests: 150, MeanGap: 400, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// "deadline" is least-work's alias: it resolves through the facade
	// and must reconcile exactly as least-work does.
	for _, polName := range []string{"least-work", "deadline"} {
		for _, ctl := range []ClusterControl{{}, {Admission: true}} {
			name := polName
			if ctl.Admission {
				name += "/admission"
			}
			ctl := ctl
			t.Run(name, func(t *testing.T) {
				pol, err := ClusterPolicyByName(polName)
				if err != nil {
					t.Fatal(err)
				}
				st := NewRequestTraceStore(RequestTraceOptions{SampleEvery: 1})
				res, err := cluster.Serve(cfg, s, serveSpec(t, "AI-MT+Prio"), pol.New(), ClusterOptions{
					Chips:   2,
					Control: ctl,
					Trace:   st,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Spans) != s.Requests {
					t.Fatalf("%d spans for %d requests", len(res.Spans), s.Requests)
				}
				shed := 0
				for _, sp := range res.Spans {
					assertSpanReconciles(t, sp)
					if sp.Shed {
						shed++
						continue
					}
					if sp.Chip < 0 || sp.Chip >= 2 {
						t.Errorf("req %d on invalid chip %d", sp.Req, sp.Chip)
					}
					if sp.ETA == 0 {
						t.Errorf("req %d: no dispatcher ETA recorded", sp.Req)
					}
				}
				if shed != res.ShedCount {
					t.Errorf("spans mark %d shed, result says %d", shed, res.ShedCount)
				}
				total, storeShed, _ := st.Totals()
				if total+storeShed != s.Requests {
					t.Errorf("store holds %d+%d spans, want %d", total, storeShed, s.Requests)
				}
			})
		}
	}
}

// requestTraceGoldenPath holds the merged Perfetto export golden. The
// name deliberately avoids the bare .golden suffix, which
// TestGoldenFilesComplete reserves for experiment outputs.
const requestTraceGoldenPath = "testdata/requesttrace.golden.json"

// traceGoldenRun is the fixed-seed scenario shared by the golden and
// the surface-agreement test: small enough to run in milliseconds,
// overloaded enough to produce misses and interesting attribution.
func traceGoldenRun(t *testing.T) *ClusterTraceRun {
	t.Helper()
	tr, err := ClusterTraceRequests(PaperConfig(), DefaultServingClasses(), serveSpec(t, "AI-MT"), 60, 2, 2.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGoldenRequestTrace pins the merged Perfetto/Chrome export —
// engine occupancy tracks overlaid with tail-exemplar request tracks
// — byte-for-byte at a fixed seed. Regenerate after an intentional
// change with:
//
//	go test -run TestGoldenRequestTrace -update
func TestGoldenRequestTrace(t *testing.T) {
	tr := traceGoldenRun(t)
	var buf bytes.Buffer
	if err := trace.WriteChromeTracks(&buf, tr.Tracks); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(requestTraceGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(requestTraceGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(requestTraceGoldenPath)
	if err != nil {
		t.Fatalf("no golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("merged trace export drifted from %s (use -update if intentional); got %d bytes, want %d",
			requestTraceGoldenPath, buf.Len(), len(want))
	}
}

// TestRequestTraceSurfacesAgree checks that the three views of one
// run — the in-process store, the /requests JSON endpoint, and the
// merged Perfetto export — agree on the worst request.
func TestRequestTraceSurfacesAgree(t *testing.T) {
	tr := traceGoldenRun(t)
	worst, ok := tr.Store.Worst()
	if !ok {
		t.Fatal("no exemplars retained")
	}
	assertSpanReconciles(t, worst)

	mux := http.NewServeMux()
	AttachRequestTraces(mux, tr.Store)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Requests  int `json:"requests"`
		Exemplars []struct {
			Req     int `json:"req"`
			Latency int `json:"latency"`
		} `json:"exemplars"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Exemplars) == 0 {
		t.Fatal("/requests serves no exemplars")
	}
	if got := body.Exemplars[0]; got.Req != worst.Req || Cycles(got.Latency) != worst.Latency {
		t.Errorf("/requests worst exemplar req %d latency %d, store says req %d latency %d",
			got.Req, got.Latency, worst.Req, worst.Latency)
	}
	total, _, _ := tr.Store.Totals()
	if body.Requests != total {
		t.Errorf("/requests reports %d requests, store says %d", body.Requests, total)
	}

	found := false
	for _, tk := range tr.Tracks {
		if tk.Process == "requests" && strings.Contains(tk.Thread, fmt.Sprintf("req %d ", worst.Req)) {
			found = true
			var sum Cycles
			for _, ev := range tk.Events {
				sum += ev.End - ev.Start
			}
			if sum != worst.Latency {
				t.Errorf("worst request's track slices sum to %d, latency is %d", sum, worst.Latency)
			}
		}
	}
	if !found {
		t.Errorf("worst request %d has no track in the merged export", worst.Req)
	}
}

// rawTracer records every engine Event call verbatim: the stream a
// collector's Events replay must reproduce.
type rawTracer struct{ evs []trace.Event }

func (r *rawTracer) Event(engine, name string, net, layer, iter int, start, end Cycles) {
	r.evs = append(r.evs, trace.Event{Engine: engine, Name: name, Net: net, Layer: layer, Iter: iter, Start: start, End: end})
}

// teeTracer hands each event to the collector under test and to the
// raw reference.
type teeTracer struct {
	col *rtrace.Collector
	raw *rawTracer
}

func (t teeTracer) Event(engine, name string, net, layer, iter int, start, end Cycles) {
	t.col.Event(engine, name, net, layer, iter, start, end)
	t.raw.Event(engine, name, net, layer, iter, start, end)
}

// TestCollectorEventsMatchEngine is the differential test for the one
// occupancy log: replaying a collector with its labels resolved at
// export time must give exactly the events the engine emitted, field
// for field and in order, names included. It covers every registry
// scheduler over the paper's mixes at batch 1 and 4, and a prioritized
// transformer serving stream under the preemptive and lookahead
// schedulers, so CB splits, both host directions and chained decode
// entries all pass through.
func TestCollectorEventsMatchEngine(t *testing.T) {
	cfg := PaperConfig()
	seen := map[string]int{}
	check := func(t *testing.T, nets []*Compiled, run func(teeTracer) error) {
		t.Helper()
		col := rtrace.NewCollector(len(nets))
		raw := &rawTracer{}
		if err := run(teeTracer{col, raw}); err != nil {
			t.Fatal(err)
		}
		got := col.Events(nets)
		if len(got) != len(raw.evs) {
			t.Fatalf("replayed %d events, engine emitted %d", len(got), len(raw.evs))
		}
		for i := range got {
			if got[i] != raw.evs[i] {
				t.Fatalf("event %d: replayed %+v, engine emitted %+v", i, got[i], raw.evs[i])
			}
		}
		for _, e := range raw.evs {
			k := e.Engine
			if e.Engine != "mem" {
				k = strings.SplitN(e.Name, ":", 2)[0]
			}
			seen[k]++
		}
	}

	for _, spec := range PaperMixes() {
		for _, batch := range []int{1, 4} {
			mix, err := BuildMix(cfg, spec, batch)
			if err != nil {
				t.Fatal(err)
			}
			in := propertyInput(len(mix.Nets))
			in.MemHeavy = mix.MemHeavy
			for _, e := range sched.Registry() {
				t.Run(fmt.Sprintf("%s/b%d/%s", spec.Name, batch, e.Name), func(t *testing.T) {
					check(t, mix.Nets, func(tr teeTracer) error {
						_, err := Run(cfg, mix.Nets, e.New(cfg, in), RunOptions{Tracer: tr})
						return err
					})
				})
			}
		}
	}

	// Chat outranks vision, so the preemptive scheduler splits CBs.
	classes := TransformerServingClasses()
	classes[0].Priority = 1
	gaps, err := ServeGaps(cfg, classes, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewStream(cfg, classes, ServeStreamOptions{Requests: 150, MeanGap: gaps[0], Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"AI-MT+Prio", "Lookahead"} {
		spec := serveSpec(t, name)
		t.Run("transformer/"+name, func(t *testing.T) {
			check(t, s.Nets, func(tr teeTracer) error {
				_, err := Run(cfg, s.Nets, spec.New(cfg, s), RunOptions{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter, Tracer: tr})
				return err
			})
		})
	}

	for _, k := range []string{"mem", "CB", "CB(split)", "host-in", "host-out"} {
		if seen[k] == 0 {
			t.Errorf("no %q events exercised; seen %v", k, seen)
		}
	}
}
