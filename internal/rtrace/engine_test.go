package rtrace_test

import (
	"fmt"
	"reflect"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/nn"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
)

// tee sends every engine event to both collectors.
type tee struct {
	col *rtrace.Collector
	ref *rtrace.RefCollector
}

func (t tee) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	t.col.Event(engine, name, net, layer, iter, start, end)
	t.ref.Event(engine, name, net, layer, iter, start, end)
}

// preemptingStream draws a stream that splits compute blocks: a
// low-priority class of long convolutions and a premium class of small
// fully connected requests, served by AI-MT with preemption. The
// convolutions are 112x112 so that their compute blocks outlast
// AI-MT's minimum split length of four pipeline fills.
func preemptingStream(t *testing.T, cfg arch.Config) (*serve.Stream, serve.SchedulerSpec) {
	t.Helper()
	big := nn.NewBuilder("batch-conv", 64, 112, 112)
	big.Conv("conv1", 64, 3, 1, 1)
	big.Conv("conv2", 64, 3, 1, 1)
	small := nn.NewBuilder("premium-fc", 256, 1, 1)
	small.FC("fc1", 512)
	small.FC("fc2", 256)
	classes := []serve.Class{
		{Name: "batch", Net: big.MustBuild(), Weight: 1, Slack: 10},
		{Name: "premium", Net: small.MustBuild(), Weight: 3, Slack: 4, Priority: 5},
	}
	gaps, err := serve.Gaps(cfg, classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: 300, Seed: 7, MeanGap: gaps[0]})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := serve.SpecByName("AI-MT+Prio")
	if err != nil {
		t.Fatal(err)
	}
	return s, spec
}

// direct runs the stream again with a collector attached directly, so
// the engine hands it every interval by kind, and checks that its log
// replays as the tee'd collector's, which the engine fed by name.
func direct(t *testing.T, cfg arch.Config, s *serve.Stream, spec serve.SchedulerSpec, teed *rtrace.Collector) *rtrace.Collector {
	t.Helper()
	col := rtrace.NewCollector(len(s.Nets))
	if _, err := sim.Run(cfg, s.Nets, spec.New(cfg, s), sim.Options{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter, Tracer: col}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.Events(s.Nets), teed.Events(s.Nets)) {
		t.Fatal("the typed path logged other events than the string path")
	}
	return col
}

// TestBuildMatchesReferenceOnEngineLog is the differential test on a
// real engine log with CB splits, which the shuffled synthetic logs of
// TestBuildMatchesReference cannot stand in for: there each engine's
// intervals arrive in time order and Build takes its sort-free path.
// Every engine event goes by name to both collectors, and a second
// collector attached directly takes the same run by kind; on one chip
// and on a 2-chip cluster (chip logs merged into stream coordinates)
// Build must produce exactly the reference builder's spans from
// either log.
func TestBuildMatchesReferenceOnEngineLog(t *testing.T) {
	cfg := arch.PaperConfig()
	s, spec := preemptingStream(t, cfg)
	n := len(s.Nets)

	t.Run("chip", func(t *testing.T) {
		tr := tee{rtrace.NewCollector(n), rtrace.NewRefCollector(n)}
		res, err := sim.Run(cfg, s.Nets, spec.New(cfg, s), sim.Options{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Splits == 0 {
			t.Fatal("the stream split no compute block")
		}
		in := serve.TraceInput(s, res, spec.Name)
		want := rtrace.RefBuild(in, tr.ref)
		if got := rtrace.Build(in, tr.col); !reflect.DeepEqual(got, want) {
			t.Error("Build disagrees with the reference builder on the engine's log")
		}
		if got := rtrace.Build(in, direct(t, cfg, s, spec, tr.col)); !reflect.DeepEqual(got, want) {
			t.Error("Build disagrees with the reference builder on the typed log")
		}
	})

	t.Run("cluster", func(t *testing.T) {
		const chips = 2
		rr, err := cluster.ByName("round-robin")
		if err != nil {
			t.Fatal(err)
		}
		assign, err := cluster.Dispatch(s, rr.New(), chips)
		if err != nil {
			t.Fatal(err)
		}
		perChip := make([][]int, chips)
		for i, c := range assign {
			perChip[c] = append(perChip[c], i)
		}
		col, typed, ref := rtrace.NewCollector(n), rtrace.NewCollector(n), rtrace.NewRefCollector(n)
		merged := &sim.Result{NetArrive: make([]arch.Cycles, n), NetFinish: make([]arch.Cycles, n)}
		for c, idx := range perChip {
			sub, err := s.SubStream(fmt.Sprintf("chip%d", c), idx)
			if err != nil {
				t.Fatal(err)
			}
			tr := tee{rtrace.NewCollector(len(sub.Nets)), rtrace.NewRefCollector(len(sub.Nets))}
			res, err := sim.Run(cfg, sub.Nets, spec.New(cfg, sub), sim.Options{Arrivals: sub.Arrivals, ChainAfter: sub.ChainAfter, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			merged.Splits += res.Splits
			for li, gi := range idx {
				merged.NetArrive[gi], merged.NetFinish[gi] = res.NetArrive[li], res.NetFinish[li]
			}
			col.Merge(tr.col, idx)
			typed.Merge(direct(t, cfg, sub, spec, tr.col), idx)
			ref.Merge(tr.ref, idx)
		}
		if merged.Splits == 0 {
			t.Fatal("the cluster split no compute block")
		}
		in := serve.TraceInput(s, merged, spec.Name)
		in.Chip = assign
		got := rtrace.Build(in, col)
		want := rtrace.RefBuild(in, ref)
		if !reflect.DeepEqual(got, want) {
			t.Error("Build disagrees with the reference builder on the merged chip logs")
		}
		if !reflect.DeepEqual(rtrace.Build(in, typed), want) {
			t.Error("Build disagrees with the reference builder on the merged typed chip logs")
		}

		// The same spans, dispatcher estimates aside, as the cluster's own
		// traced run: the logs above are the cluster's.
		cres, err := cluster.Serve(cfg, s, spec, rr.New(), cluster.Options{Chips: chips, Trace: rtrace.NewStore(rtrace.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		if len(cres.Spans) != len(got) {
			t.Fatalf("cluster traced %d spans, want %d", len(cres.Spans), len(got))
		}
		for i := range got {
			sp := cres.Spans[i]
			sp.ETA, sp.Run = got[i].ETA, got[i].Run
			if !reflect.DeepEqual(sp, got[i]) {
				t.Fatalf("request %d: cluster span %+v, want %+v", got[i].Req, cres.Spans[i], got[i])
			}
		}
	})
}
