package serve_test

import (
	"testing"
	"time"

	"aimt/internal/cluster"
	"aimt/internal/runstore"
	"aimt/internal/serve"
)

// TestRecordCurve pins the serve→runstore mapping of an unrouted sweep:
// one "serve" run per (point, scheduler), labels carrying
// mix/sched/process/load and no routing labels, and the shed/token rows
// present only when the report has them. The recorder is the one shared
// with routed sweeps (cluster.RecordCurve); the routed mapping is pinned
// in the cluster package.
func TestRecordCurve(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }

	unrouted := func(rep *serve.Report) *cluster.Result {
		return &cluster.Result{Scheduler: rep.Scheduler, Chips: 1, Agg: rep}
	}
	points := []cluster.CurvePoint{
		{OfferedLoad: 0.5, Results: []*cluster.Result{
			unrouted(&serve.Report{Scheduler: "AI-MT", P50: 100, P99: 300, P999: 400, MissRate: 0.01, Throughput: 12.5, PEUtil: 0.4}),
			unrouted(&serve.Report{Scheduler: "FIFO", P50: 150, P99: 900, P999: 1200, MissRate: 0.05, Throughput: 11.0, PEUtil: 0.38}),
		}},
		{OfferedLoad: 1.1, Results: []*cluster.Result{
			unrouted(&serve.Report{Scheduler: "AI-MT", P50: 400, P99: 2000, P999: 3000, MissRate: 0.2, Throughput: 18.0, PEUtil: 0.9,
				Shed: 7, Tokens: 640, TokensPerMcycle: 55}),
			unrouted(&serve.Report{Scheduler: "FIFO", P50: 600, P99: 4000, P999: 9000, MissRate: 0.4, Throughput: 15.0, PEUtil: 0.88}),
		}},
	}
	stored, err := cluster.RecordCurve(st, "heavy", "poisson", "abc1234", points)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 4 {
		t.Fatalf("stored %d runs, want 4", len(stored))
	}
	r := stored[2] // load 1.1, AI-MT, the one with shed + tokens
	if r.Source != "serve" || r.Commit != "abc1234" {
		t.Errorf("source/commit = %q/%q", r.Source, r.Commit)
	}
	for k, want := range map[string]string{"mix": "heavy", "sched": "AI-MT", "process": "poisson", "load": "1.10", "policy": "", "chips": ""} {
		if got := r.Label(k); got != want {
			t.Errorf("label %s = %q, want %q", k, got, want)
		}
	}
	for name, want := range map[string]float64{
		"p99 cycles": 2000, "miss rate": 0.2, "tput req/Mcyc": 18.0,
		"shed count": 7, "tokens count": 640, "tokens tok/Mcyc": 55,
	} {
		v, ok := r.Metric(name)
		if !ok || v != want {
			t.Errorf("metric %s = %v (ok=%v), want %v", name, v, ok, want)
		}
	}
	for _, name := range []string{"shed count", "tokens count", "imbalance frac"} {
		if _, ok := stored[0].Metric(name); ok {
			t.Errorf("%s recorded for an unrouted report without it", name)
		}
	}

	// The rows must round-trip through the JSONL file.
	re, err := runstore.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.Runs()); got != 4 {
		t.Fatalf("reopened store has %d runs, want 4", got)
	}
}
