package aimt

import (
	"testing"

	"aimt/internal/analysis"
	"aimt/internal/serve"
)

// Differential tests: the simulator against closed-form timing. With
// feature transfers instant (HostBandwidth = 0) a single network under
// the fully serialized FIFO alternates fetch and compute with no
// overlap, so its makespan must equal the analytic serialized bound —
// the sum of every layer's memory and compute latency, exactly the
// quantities analysis.LatencyRatios reports for Fig 5.
func TestDifferentialSerializedBound(t *testing.T) {
	cfg := PaperConfig()
	cfg.HostBandwidth = 0 // instant feature transfers: pure weight/compute timeline
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	serial, err := SchedulerByName("SerialFIFO")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"VGG16", "RN50", "MN", "GNMT"} {
		net, err := NetworkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cn, err := Compile(net, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		var serialized Cycles
		for _, r := range analysis.LatencyRatios(cn) {
			serialized += r.ComputeCycles + r.MemoryCycles
		}

		res, err := Run(cfg, []*Compiled{cn}, serial.New(cfg, SchedulerInput{}), RunOptions{CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Makespan != serialized {
			t.Errorf("%s: SerialFIFO makespan %d != analytic serialized bound %d (drift %+d)",
				name, res.Makespan, serialized, res.Makespan-serialized)
		}
		if res.Splits != 0 {
			t.Errorf("%s: serialized run split %d compute blocks", name, res.Splits)
		}

		// The double-buffered FIFO overlaps fetch with compute: its
		// makespan lands between the ideal overlap bound and the
		// serialized schedule.
		overlapped, err := Run(cfg, []*Compiled{cn}, NewFIFO(), RunOptions{CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s under FIFO: %v", name, err)
		}
		if ideal := IdealBound([]*Compiled{cn}); overlapped.Makespan < ideal {
			t.Errorf("%s: FIFO makespan %d below the ideal bound %d", name, overlapped.Makespan, ideal)
		}
		if overlapped.Makespan > serialized {
			t.Errorf("%s: FIFO makespan %d above the serialized schedule %d — prefetch made it slower",
				name, overlapped.Makespan, serialized)
		}
	}
}

// TestFrontierDifferentialServeStream runs a random open-loop serving
// stream under every registered scheduler with the machine-model invariant
// checker enabled. Since PR 3 the checker's sixth invariant family
// recomputes the candidate sets by brute force after every engine
// event and compares them against the engine's incrementally
// maintained frontiers, so a pass here proves frontier-based
// MBCandidates/ReadyCBs/SelectableCBs/AvailableCBCycles equal the
// full scans on every event of the stream, for every policy.
func TestFrontierDifferentialServeStream(t *testing.T) {
	cfg := PaperConfig()
	classes := DefaultServingClasses()
	for _, process := range []serve.Process{ServePoisson, ServeBursty} {
		stream, err := serve.NewStream(cfg, classes, ServeStreamOptions{
			Requests: 100,
			Process:  process,
			Seed:     11,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range registrySpecs() {
			rep, err := serve.Serve(cfg, stream, spec.New(cfg, stream), RunOptions{CheckInvariants: true})
			if err != nil {
				t.Errorf("%s/%s: %v", process, spec.Name, err)
				continue
			}
			if rep.Requests != len(stream.Nets) {
				t.Errorf("%s/%s: report covers %d of %d requests", process, spec.Name, rep.Requests, len(stream.Nets))
			}
		}
	}
}
