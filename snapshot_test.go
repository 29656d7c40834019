package aimt

import (
	"math/rand"
	"reflect"
	"testing"

	"aimt/internal/sched"
)

// snapshotSchedulers is the scheduler battery for the snapshot/restore
// property tests: every registered policy, including the stateful
// ones (queues, round-robin pointers, token ledgers, the AI-MT
// selected queue and credit state) and the speculative Lookahead
// wrapper, which itself snapshots the engine mid-run, plus Lookahead
// over AI-MT at a shorter horizon than the registry default and over a
// FIFO inner policy.
func snapshotSchedulers() []SchedulerSpec {
	return append(registrySpecs(),
		SchedulerSpec{
			Name: "Lookahead(AI-MT)",
			New: func(cfg Config, _ *ServeStream) Scheduler {
				return sched.NewLookahead(NewAIMT(cfg, AllMechanisms()), 2048)
			},
		},
		SchedulerSpec{
			Name: "Lookahead(FIFO)",
			New: func(Config, *ServeStream) Scheduler {
				return sched.NewLookahead(NewFIFO(), 1024)
			},
		})
}

// runToProbe builds a fresh engine, steps it to the probe cycle, and
// returns it. probe < 0 means "do not step at all" (snapshot the
// initial state).
func runToProbe(t *testing.T, cfg Config, stream *ServeStream, sch Scheduler, opts RunOptions, probe Cycles) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg, stream.Nets, sch, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if probe >= 0 {
		if _, err := eng.StepUntil(probe); err != nil {
			t.Fatalf("StepUntil(%d): %v", probe, err)
		}
	}
	return eng
}

// TestSnapshotReplayAllSchedulers is the restore-then-replay property
// battery: for every scheduler, running a serve stream uninterrupted,
// running it with a mid-run Snapshot taken and discarded, and running
// it with Restore rewinding to that snapshot and replaying, must all
// produce bit-identical results — with the machine-model invariant
// checker on, so the replay also revalidates every invariant family.
func TestSnapshotReplayAllSchedulers(t *testing.T) {
	cfg := PaperConfig()
	stream, err := NewServeStream(cfg, DefaultServingClasses(), ServeStreamOptions{
		Requests: 60,
		Process:  ServePoisson,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{
		Arrivals:        stream.Arrivals,
		ChainAfter:      stream.ChainAfter,
		CheckInvariants: true,
	}
	for _, spec := range snapshotSchedulers() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ref, err := Run(cfg, stream.Nets, spec.New(cfg, stream), opts)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			// Probe early, mid, late, and before the first event.
			probes := []Cycles{-1, ref.Makespan / 7, ref.Makespan / 2, ref.Makespan * 9 / 10}
			for _, probe := range probes {
				eng := runToProbe(t, cfg, stream, spec.New(cfg, stream), opts, probe)
				snap := eng.Snapshot(nil)

				// Finish the interrupted run: must match the reference.
				resA, err := eng.Run()
				if err != nil {
					t.Fatalf("probe %d: resume run: %v", probe, err)
				}
				if !reflect.DeepEqual(resA, ref) {
					t.Fatalf("probe %d: interrupted run diverged from reference:\n got %+v\nwant %+v", probe, resA, ref)
				}

				// Rewind the finished engine to the probe and replay:
				// must match again, bit for bit.
				if err := eng.Restore(snap); err != nil {
					t.Fatalf("probe %d: Restore: %v", probe, err)
				}
				if got, want := eng.Now(), max(probe, 0); got > want {
					t.Fatalf("probe %d: Now()=%d after restore, want <= %d", probe, got, want)
				}
				resB, err := eng.Run()
				if err != nil {
					t.Fatalf("probe %d: replay run: %v", probe, err)
				}
				if !reflect.DeepEqual(resB, ref) {
					t.Fatalf("probe %d: restored replay diverged from reference:\n got %+v\nwant %+v", probe, resB, ref)
				}
			}
		})
	}
}

// TestSnapshotRandomProbes snapshots at arbitrary, randomly chosen
// event counts — including repeated rewinds of the same snapshot and
// snapshot-storage reuse across probes — and checks every replay is
// bit-identical to the uninterrupted run. It exercises the most
// stateful schedulers, where a single missed field in Save/Restore
// would skew the replay.
func TestSnapshotRandomProbes(t *testing.T) {
	cfg := PaperConfig()
	stream, err := NewServeStream(cfg, DefaultServingClasses(), ServeStreamOptions{
		Requests: 40,
		Process:  ServeBursty,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{
		Arrivals:        stream.Arrivals,
		ChainAfter:      stream.ChainAfter,
		CheckInvariants: true,
	}
	for _, spec := range []struct {
		name string
		mk   func() Scheduler
	}{
		{"AI-MT", func() Scheduler { return NewAIMT(cfg, AllMechanisms()) }},
		{"PREMA", func() Scheduler { return NewPREMA(nil) }},
		{"Lookahead(AI-MT)", func() Scheduler {
			return sched.NewLookahead(NewAIMT(cfg, AllMechanisms()), 1024)
		}},
	} {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			ref, err := Run(cfg, stream.Nets, spec.mk(), opts)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			rng := rand.New(rand.NewSource(42))
			var snap *EngineSnapshot // reused across probes
			for trial := 0; trial < 6; trial++ {
				probe := Cycles(rng.Int63n(int64(ref.Makespan) + 1))
				eng := runToProbe(t, cfg, stream, spec.mk(), opts, probe)
				snap = eng.Snapshot(snap)
				// Rewind the same snapshot several times; each replay
				// must land on the same result.
				for rewind := 0; rewind < 2; rewind++ {
					res, err := eng.Run()
					if err != nil {
						t.Fatalf("trial %d probe %d rewind %d: %v", trial, probe, rewind, err)
					}
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("trial %d probe %d rewind %d: replay diverged:\n got %+v\nwant %+v",
							trial, probe, rewind, res, ref)
					}
					if err := eng.Restore(snap); err != nil {
						t.Fatalf("trial %d probe %d rewind %d: Restore: %v", trial, probe, rewind, err)
					}
				}
			}
		})
	}
}

// TestSnapshotStaleRejected checks snapshot hygiene at the public
// API: a snapshot from one engine or one run cannot be restored into
// another. Cross-run restores would silently corrupt state, so they
// must fail loudly instead.
func TestSnapshotStaleRejected(t *testing.T) {
	cfg := PaperConfig()
	stream, err := NewServeStream(cfg, DefaultServingClasses(), ServeStreamOptions{
		Requests: 8,
		Process:  ServePoisson,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Arrivals: stream.Arrivals, ChainAfter: stream.ChainAfter}

	engA, err := NewEngine(cfg, stream.Nets, NewFIFO(), opts)
	if err != nil {
		t.Fatal(err)
	}
	engB, err := NewEngine(cfg, stream.Nets, NewFIFO(), opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := engA.Snapshot(nil)
	if err := engB.Restore(snap); err == nil {
		t.Fatal("Restore accepted a snapshot from a different engine")
	}
	if err := engB.Restore(nil); err == nil {
		t.Fatal("Restore accepted a nil snapshot")
	}
	if err := engA.Restore(snap); err != nil {
		t.Fatalf("Restore rejected its own snapshot: %v", err)
	}
}
