package cluster

import (
	"testing"
	"time"

	"aimt/internal/runstore"
	"aimt/internal/serve"
)

// TestRecordCurve pins the sweep→runstore mapping of a routed result:
// a "cluster" run that adds the policy and chip labels, takes the
// per-chip load, and adds the imbalance row to the aggregate report's
// rows. An unrouted result in the same sweep stays a "serve" run. The
// full unrouted mapping is pinned by the serve package's TestRecordCurve.
func TestRecordCurve(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }

	unrouted := func(rep *serve.Report) *Result {
		return &Result{Scheduler: rep.Scheduler, Chips: 1, Agg: rep}
	}
	agg := func(tput float64) *serve.Report {
		return &serve.Report{Scheduler: "AI-MT", P99: 2000, MissRate: 0.1, Throughput: tput, PEUtil: 0.7}
	}
	points := []CurvePoint{
		{OfferedLoad: 0.5, Results: []*Result{
			unrouted(&serve.Report{Scheduler: "AI-MT", P50: 100, P99: 300, P999: 400, MissRate: 0.01, Throughput: 12.5, PEUtil: 0.4}),
		}},
		{OfferedLoad: 3.2, Results: []*Result{
			{Policy: "least-work", Scheduler: "AI-MT", Chips: 4, Agg: agg(20), Imbalance: 0.05},
			{Policy: "round-robin", Scheduler: "AI-MT", Chips: 4, Agg: agg(18), Imbalance: 0.30},
		}},
	}
	stored, err := RecordCurve(st, "heavy", "poisson", "abc1234", points)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 3 {
		t.Fatalf("stored %d runs, want 3", len(stored))
	}
	if u := stored[0]; u.Source != "serve" || u.Label("policy") != "" || u.Label("load") != "0.50" {
		t.Errorf("unrouted run = source %q policy %q load %q, want serve/\"\"/0.50", u.Source, u.Label("policy"), u.Label("load"))
	}
	if _, ok := stored[0].Metric("imbalance frac"); ok {
		t.Error("imbalance recorded for an unrouted result")
	}

	c := stored[2]
	if c.Source != "cluster" {
		t.Errorf("source = %q, want cluster", c.Source)
	}
	for k, want := range map[string]string{
		"mix": "heavy", "sched": "AI-MT", "policy": "round-robin",
		"process": "poisson", "chips": "4", "load": "0.80",
	} {
		if got := c.Label(k); got != want {
			t.Errorf("label %s = %q, want %q", k, got, want)
		}
	}
	if v, ok := c.Metric("imbalance frac"); !ok || v != 0.30 {
		t.Errorf("imbalance metric = %v (ok=%v), want 0.30", v, ok)
	}
	if _, ok := c.Metric("p99 cycles"); !ok {
		t.Error("aggregate report rows missing from cluster run")
	}

	re, err := runstore.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.Runs()); got != 3 {
		t.Fatalf("reopened store has %d runs, want 3", got)
	}
}
