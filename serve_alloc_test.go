package aimt

import (
	"testing"

	"aimt/internal/rtrace"
	"aimt/internal/serve"
)

// TestServeStreamAllocsFlatAt8x pins the allocation-free engine core
// on the serving path: growing a serve stream's request count 8x must
// not grow the per-run allocation count with it. The arena-backed
// state, pooled engine and scratch-reusing schedulers make the
// steady-state per-request cost zero allocations; only fixed per-run
// setup (scheduler construction, the cloned result's slice headers)
// and one-time arena growth at the larger size may allocate.
func TestServeStreamAllocsFlatAt8x(t *testing.T) {
	cfg := PaperConfig()
	classes := DefaultServingClasses()
	build := func(requests int) *serve.Stream {
		s, err := serve.NewStream(cfg, classes, ServeStreamOptions{
			Requests: requests,
			Process:  ServePoisson,
			Seed:     11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(s *serve.Stream) float64 {
		opts := RunOptions{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter}
		once := func() {
			if _, err := Run(cfg, s.Nets, NewAIMT(cfg, AllMechanisms()), opts); err != nil {
				t.Fatal(err)
			}
		}
		once() // warm the pooled engine's arena to this stream's size
		return testing.AllocsPerRun(10, once)
	}
	small := run(build(50))
	large := run(build(400))
	// 350 extra requests; any per-request or per-event allocation
	// would add hundreds. Fixed setup differences stay far below this.
	if delta := large - small; delta > 64 {
		t.Errorf("8x the requests grew allocations by %.0f (%.0f -> %.0f); serve path is not allocation-free",
			delta, small, large)
	}
}

// TestServeStreamTracingDisabledAllocFree pins that the request-trace
// plumbing costs nothing when disabled: an explicit nil tracer must
// allocate exactly as much as leaving the field unset, so the hot
// path never pays for hooks it isn't using.
func TestServeStreamTracingDisabledAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	cfg := PaperConfig()
	s, err := serve.NewStream(cfg, DefaultServingClasses(), ServeStreamOptions{
		Requests: 200,
		Process:  ServePoisson,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(opts RunOptions) float64 {
		once := func() {
			if _, err := Run(cfg, s.Nets, NewAIMT(cfg, AllMechanisms()), opts); err != nil {
				t.Fatal(err)
			}
		}
		once() // warm the pooled engine's arena
		return testing.AllocsPerRun(10, once)
	}
	base := measure(RunOptions{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter})
	off := measure(RunOptions{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter, Tracer: nil})
	if off != base {
		t.Errorf("nil tracer changed allocations: %.0f with tracing disabled, %.0f baseline", off, base)
	}
}

// TestServeStreamTracedAllocsFlatAt8x pins request tracing at
// O(requests) allocation instead of O(events): a traced run plus span
// building over 8x the requests may allocate only a bounded number
// more. Labels are resolved once per compiled network, the collector
// logs into fixed-size chunks, and Build carves its spans from a few
// shared slabs, so the growth is a handful of chunks, not one
// allocation per event or per span.
func TestServeStreamTracedAllocsFlatAt8x(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	cfg := PaperConfig()
	run := func(requests int) float64 {
		s, err := serve.NewStream(cfg, DefaultServingClasses(), ServeStreamOptions{
			Requests: requests,
			Process:  ServePoisson,
			Seed:     11,
		})
		if err != nil {
			t.Fatal(err)
		}
		once := func() {
			col := rtrace.NewCollector(len(s.Nets))
			res, err := Run(cfg, s.Nets, NewAIMT(cfg, AllMechanisms()),
				RunOptions{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter, Tracer: col})
			if err != nil {
				t.Fatal(err)
			}
			if spans := rtrace.Build(serve.TraceInput(s, res, "pin"), col); len(spans) != requests {
				t.Fatalf("%d spans for %d requests", len(spans), requests)
			}
		}
		once() // warm the pooled engine and span-builder buffers
		return testing.AllocsPerRun(10, once)
	}
	small := run(50)
	large := run(400)
	if delta := large - small; delta > 64 {
		t.Errorf("8x the requests grew traced allocations by %.0f (%.0f -> %.0f); tracing is not O(requests)",
			delta, small, large)
	}
}
