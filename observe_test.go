package aimt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/nn"
	"aimt/internal/obs"
	"aimt/internal/sched"
	"aimt/internal/serve"
	"aimt/internal/sim"
	"aimt/internal/workload"
)

// observerGoldenPath pins what an observed run leaves in its registry
// and decision ledger. Regenerate with
//
//	go test -run TestObserverEquivalenceGolden -update .
const observerGoldenPath = "testdata/observers.golden.txt"

// observerLedgerCap keeps every dumped ledger small while still making
// the ring drop decisions within one Run or StepUntil call.
const observerLedgerCap = 16

// observerDump appends the registry's Prometheus exposition (without
// the static # HELP and # TYPE lines) and the ledger's summary and
// retained decisions to b under a heading.
func observerDump(t *testing.T, b *bytes.Buffer, heading string, reg *obs.Registry, led *obs.Ledger) {
	t.Helper()
	fmt.Fprintf(b, "== %s\n", heading)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&prom)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	sum, err := json.Marshal(led.Summary())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "-- ledger %s\n", sum)
	if err := led.WriteJSONL(b); err != nil {
		t.Fatal(err)
	}
}

// observerStream draws a short Poisson stream of classes at the given
// offered load.
func observerStream(t *testing.T, cfg arch.Config, classes []serve.Class, requests int, load float64) *serve.Stream {
	t.Helper()
	gaps, err := serve.Gaps(cfg, classes, load)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: requests, MeanGap: gaps[0], Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tieredClasses is a bulk VGG16 class behind a prioritized RNN class:
// VGG16's long compute blocks are what AI-MT+Prio preempts.
func tieredClasses() []serve.Class {
	hi := serve.DefaultClasses()[1]
	hi.Priority = 1
	return []serve.Class{{Name: "bulk", Net: nn.VGG16(), Weight: 1, Slack: 10}, hi}
}

// observerLadder steps a fresh observed engine over the stream through
// a ladder of StepUntil limits (quarters of the unobserved makespan),
// dumping the observers after every step and after the final Run.
func observerLadder(t *testing.T, b *bytes.Buffer, name string, cfg arch.Config, s *serve.Stream, spec serve.SchedulerSpec) *obs.Ledger {
	t.Helper()
	plain, err := sim.Run(cfg, s.Nets, spec.New(cfg, s), sim.Options{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter})
	if err != nil {
		t.Fatal(err)
	}
	reg, led := obs.NewRegistry(), obs.NewLedger(observerLedgerCap)
	e, err := sim.NewEngine(cfg, s.Nets, spec.New(cfg, s), sim.Options{
		Arrivals: s.Arrivals, ChainAfter: s.ChainAfter,
		Metrics: reg, Ledger: led, NetClasses: s.NetClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= 3; q++ {
		limit := plain.Makespan * arch.Cycles(q) / 4
		if _, err := e.StepUntil(limit); err != nil {
			t.Fatal(err)
		}
		observerDump(t, b, fmt.Sprintf("%s StepUntil(%d)", name, limit), reg, led)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != plain.Makespan {
		t.Fatalf("%s: observed makespan %d, unobserved %d", name, res.Makespan, plain.Makespan)
	}
	observerDump(t, b, name+" Run", reg, led)
	return led
}

// TestObserverEquivalenceGolden pins the registry exposition and the
// decision ledger after every Run and after each step of a StepUntil
// ladder: every registry scheduler over a paper mix, a class-labelled
// serving stream, AI-MT+Prio with preemptions, Lookahead (whose
// speculation runs under Quiesce) and a snapshot/restore replay. The
// observers must read the same whenever the engine hands control back,
// however the engine gathers them in between.
func TestObserverEquivalenceGolden(t *testing.T) {
	cfg := PaperConfig()
	var b bytes.Buffer

	mix, err := workload.Build(cfg, workload.PaperMixes()[0], workload.BuildOptions{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range sched.Registry() {
		reg, led := obs.NewRegistry(), obs.NewLedger(observerLedgerCap)
		if _, err := sim.Run(cfg, mix.Nets, entry.New(cfg, sched.Input{}), sim.Options{Metrics: reg, Ledger: led}); err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		observerDump(t, &b, "mix "+mix.Name+" "+entry.Name+" Run", reg, led)
	}

	classes := serve.DefaultClasses()
	aimtSpec, err := serve.SpecByName("AI-MT")
	if err != nil {
		t.Fatal(err)
	}
	observerLadder(t, &b, "classes AI-MT", cfg, observerStream(t, cfg, classes, 40, 1.2), aimtSpec)

	prioSpec, err := serve.SpecByName("AI-MT+Prio")
	if err != nil {
		t.Fatal(err)
	}
	led := observerLadder(t, &b, "tiered AI-MT+Prio", cfg, observerStream(t, cfg, tieredClasses(), 30, 0.8), prioSpec)
	if led.CountKind(obs.KindPreempt) == 0 {
		t.Error("the tiered stream preempted nothing; the case must exercise preemption")
	}

	laSpec, err := serve.SpecByName("Lookahead")
	if err != nil {
		t.Fatal(err)
	}
	led = observerLadder(t, &b, "classes Lookahead", cfg, observerStream(t, cfg, classes, 16, 1.2), laSpec)
	if led.CountKind(obs.KindLookahead) == 0 {
		t.Error("the Lookahead case committed no speculation; it must exercise Quiesce")
	}

	// Snapshot/restore replay: the observers see the replayed suffix
	// twice, exactly as emitted.
	s := observerStream(t, cfg, classes, 40, 1.2)
	reg, led := obs.NewRegistry(), obs.NewLedger(observerLedgerCap)
	e, err := sim.NewEngine(cfg, s.Nets, aimtSpec.New(cfg, s), sim.Options{
		Arrivals: s.Arrivals, Metrics: reg, Ledger: led, NetClasses: s.NetClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepUntil(s.Arrivals[len(s.Arrivals)/2]); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot(nil)
	observerDump(t, &b, "replay StepUntil", reg, led)
	first, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	observerDump(t, &b, "replay first Run", reg, led)
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	second, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replay diverged from the first run")
	}
	observerDump(t, &b, "replay second Run", reg, led)

	if *update {
		if err := os.WriteFile(observerGoldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(observerGoldenPath))
	if err != nil {
		t.Fatalf("no golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if got[i] != wantLines[i] {
				t.Fatalf("observers drifted from %s at line %d:\n got %s\nwant %s", observerGoldenPath, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("observers drifted from %s: %d lines, want %d", observerGoldenPath, len(got), len(wantLines))
	}
}

// TestClusterSharedObserversReconcile runs a 2-chip cluster whose
// chips share one registry and one ledger, concurrently: the engine
// counters must sum to the chips' results, the ledger's tallies must
// match the counters, and a second run must read the same.
func TestClusterSharedObserversReconcile(t *testing.T) {
	cfg := PaperConfig()
	s := observerStream(t, cfg, tieredClasses(), 60, 1.6)
	spec, err := serve.SpecByName("AI-MT+Prio")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (obs.Snapshot, obs.LedgerSummary) {
		pol, err := cluster.ByName("least-work")
		if err != nil {
			t.Fatal(err)
		}
		reg, led := obs.NewRegistry(), obs.NewLedger(observerLedgerCap)
		res, err := cluster.Serve(cfg, s, spec, pol.New(), cluster.Options{Chips: 2, Metrics: reg, Ledger: led})
		if err != nil {
			t.Fatal(err)
		}
		var mb, cb, splits int
		var memBusy, peBusy, hostBusy arch.Cycles
		for _, r := range res.ChipResults {
			if r != nil {
				mb, cb, splits = mb+r.MBCount, cb+r.CBCount, splits+r.Splits
				memBusy, peBusy, hostBusy = memBusy+r.MemBusy, peBusy+r.PEBusy, hostBusy+r.HostBusy
			}
		}
		snap, sum := reg.Snapshot(), led.Summary()
		c := snap.Counters
		for _, chk := range []struct {
			name string
			got  int64
			want int64
		}{
			{"aimt_sim_mb_prefetch_total", c["aimt_sim_mb_prefetch_total"], int64(mb)},
			{"aimt_sim_mb_completed_total", c["aimt_sim_mb_completed_total"], int64(mb)},
			{"aimt_sim_cb_completed_total", c["aimt_sim_cb_completed_total"], int64(cb)},
			{"aimt_sim_cb_splits_total", c["aimt_sim_cb_splits_total"], int64(splits)},
			{"aimt_sim_nets_finished_total", c["aimt_sim_nets_finished_total"], int64(len(s.Nets))},
			{"aimt_sim_mem_busy_cycles_total", c["aimt_sim_mem_busy_cycles_total"], int64(memBusy)},
			{"aimt_sim_pe_busy_cycles_total", c["aimt_sim_pe_busy_cycles_total"], int64(peBusy)},
			{"aimt_sim_host_busy_cycles_total", c["aimt_sim_host_busy_cycles_total"], int64(hostBusy)},
			{"ledger mb-prefetch", sum.ByKind[obs.KindMBPrefetch], c["aimt_sim_mb_prefetch_total"]},
			{"ledger cb-merge", sum.ByKind[obs.KindCBMerge], c["aimt_sim_cb_merge_total"]},
			{"ledger early-evict", sum.ByKind[obs.KindEarlyEvict], c["aimt_sim_evictions_total"]},
			{"ledger cb-split", sum.ByKind[obs.KindCBSplit], c["aimt_sim_cb_splits_total"]},
			{"ledger preempt", sum.ByKind[obs.KindPreempt], c["aimt_sim_preempt_total"]},
		} {
			if chk.got != chk.want {
				t.Errorf("%s = %d, want %d", chk.name, chk.got, chk.want)
			}
		}
		var byKind, byStall int64
		for _, n := range sum.ByKind {
			byKind += n
		}
		for _, n := range sum.ByStall {
			byStall += n
		}
		if byKind != sum.Total || byStall != sum.Total {
			t.Errorf("ledger tallies %d by kind and %d by stall, total %d", byKind, byStall, sum.Total)
		}
		if sum.ByKind[obs.KindPreempt] == 0 {
			t.Error("the cluster run preempted nothing; the case must exercise preemption")
		}
		return snap, sum
	}
	snap1, sum1 := run()
	snap2, sum2 := run()
	if !reflect.DeepEqual(snap1.Counters, snap2.Counters) || !reflect.DeepEqual(sum1, sum2) {
		t.Errorf("a second shared-observer cluster run read differently:\ncounters %v\n      vs %v\nledger %+v\n    vs %+v",
			snap1.Counters, snap2.Counters, sum1, sum2)
	}
}
