package sweep

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/core"
	"aimt/internal/nn"
	"aimt/internal/sched"
	"aimt/internal/sim"
)

func testConfig() arch.Config {
	return arch.Config{
		PEDim:        4,
		NumArrays:    4,
		FreqHz:       1_000_000_000,
		MemBandwidth: 1_000_000_000,
		WeightSRAM:   64 * 16,
		IOSRAM:       1 << 20,
		WeightBytes:  1,
		FillLatency:  2,
	}
}

// testJobs builds a small mix × scheduler cross-product over two tiny
// networks, mirroring how experiments.go uses the sweep.
func testJobs(t testing.TB) []Job {
	t.Helper()
	cfg := testConfig()

	b := nn.NewBuilder("convy", 3, 8, 8)
	b.Conv("c1", 8, 3, 1, 1)
	b.Conv("c2", 8, 3, 1, 1)
	b.FC("fc", 10)
	convy, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b = nn.NewBuilder("fcy", 16, 1, 1)
	b.FC("f1", 32)
	b.FC("f2", 16)
	fcy, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var nets []*compiler.CompiledNetwork
	for _, n := range []*nn.Network{convy, fcy} {
		cn, err := compiler.Compile(n, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, cn)
	}
	mixes := [][]*compiler.CompiledNetwork{
		{nets[0]},
		{nets[0], nets[1]},
		{nets[1], nets[0], nets[1]},
	}

	scheds := []struct {
		name string
		mk   func() sim.Scheduler
	}{
		{"FIFO", func() sim.Scheduler { return sched.NewFIFO() }},
		{"RR", func() sim.Scheduler { return sched.NewRR() }},
		{"Greedy", func() sim.Scheduler { return sched.NewGreedy() }},
		{"SJF", func() sim.Scheduler { return sched.NewSJF() }},
		{"AI-MT", func() sim.Scheduler { return core.New(cfg, core.All()) }},
	}

	var jobs []Job
	for mi, mix := range mixes {
		for _, s := range scheds {
			jobs = append(jobs, Job{
				Mix:  fmt.Sprintf("mix%d", mi),
				Cfg:  cfg,
				Nets: mix,
				New:  s.mk,
			})
		}
	}
	return jobs
}

// render flattens outcomes to a canonical byte string so serial and
// parallel sweeps can be compared for byte identity.
func render(outs []Outcome) string {
	var sb strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&sb, "%d %s %s err=%v", o.Index, o.Mix, o.Scheduler, o.Err)
		if o.Res != nil {
			fmt.Fprintf(&sb, " %+v", *o.Res)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestDeterministicAcrossWorkers is the sweep determinism guarantee:
// the same jobs produce byte-identical aggregated results at every
// worker count, invariants checked on every job. Run under -race this
// also proves sharing compiled networks across jobs is safe.
func TestDeterministicAcrossWorkers(t *testing.T) {
	jobs := testJobs(t)
	for i := range jobs {
		jobs[i].Opts.CheckInvariants = true
	}
	serial := Run(jobs, Options{Workers: 1})
	if err := FirstError(serial); err != nil {
		t.Fatal(err)
	}
	want := render(serial)
	for _, workers := range []int{2, 8, 0} {
		got := Run(jobs, Options{Workers: workers})
		if err := FirstError(got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d: outcomes differ from serial run", workers)
		}
		if s := render(got); s != want {
			t.Errorf("workers=%d: rendered results not byte-identical:\n--- serial\n%s--- parallel\n%s", workers, want, s)
		}
	}
}

// TestOutcomeOrderAndLabels pins the aggregation contract: outcomes
// arrive in job order with the scheduler label filled from the
// constructed scheduler when the job left it empty.
func TestOutcomeOrderAndLabels(t *testing.T) {
	jobs := testJobs(t)
	outs := Run(jobs, Options{Workers: 4})
	if len(outs) != len(jobs) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(jobs))
	}
	for i, o := range outs {
		if o.Index != i {
			t.Errorf("outcome %d has index %d", i, o.Index)
		}
		if o.Mix != jobs[i].Mix {
			t.Errorf("outcome %d mix = %q, want %q", i, o.Mix, jobs[i].Mix)
		}
		if o.Scheduler == "" {
			t.Errorf("outcome %d has no scheduler label", i)
		}
		if o.Err != nil || o.Res == nil {
			t.Errorf("outcome %d: res=%v err=%v", i, o.Res, o.Err)
		}
	}
}

// TestJobErrors checks failures stay in their slot and FirstError
// annotates them, without disturbing the other jobs.
func TestJobErrors(t *testing.T) {
	jobs := testJobs(t)[:3]
	jobs[1] = Job{Mix: "broken"} // no factory
	outs := Run(jobs, Options{Workers: 2})
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("broken job reported no error")
	}
	err := FirstError(outs)
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("FirstError = %v, want mention of the broken mix", err)
	}
}
