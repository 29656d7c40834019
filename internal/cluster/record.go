package cluster

import (
	"fmt"

	"aimt/internal/runstore"
	"aimt/internal/serve"
)

// RecordCurve appends one run per (load point, result) of a sweep to
// the store and returns the stored runs. An unrouted result is a
// "serve" run labelled with the mix, scheduler, arrival process and
// offered load. A routed result is a "cluster" run that adds the
// routing policy and chip count, takes the per-chip load as its load,
// and adds the imbalance summary to the aggregate report's rows, so
// dashboards can compare policies across dynamic workload mixes.
func RecordCurve(st *runstore.Store, mix, process, commit string, points []CurvePoint) ([]runstore.Run, error) {
	var out []runstore.Run
	for _, pt := range points {
		for _, r := range pt.Results {
			run := runstore.Run{
				Source: "serve",
				Commit: commit,
				Labels: map[string]string{
					"mix":     mix,
					"sched":   r.Scheduler,
					"process": process,
					"load":    fmt.Sprintf("%.2f", pt.OfferedLoad),
				},
				Metrics: reportMetrics(r.Agg),
			}
			if r.Policy != "" {
				run.Source = "cluster"
				run.Labels["policy"] = r.Policy
				run.Labels["chips"] = fmt.Sprint(r.Chips)
				run.Labels["load"] = fmt.Sprintf("%.2f", pt.OfferedLoad/float64(r.Chips))
				run.Metrics = append(run.Metrics, runstore.Metric{Name: "imbalance frac", Value: r.Imbalance, Unit: "frac"})
			}
			stored, err := st.Append(run)
			if err != nil {
				return out, err
			}
			out = append(out, stored)
		}
	}
	return out, nil
}

// reportMetrics flattens a report into run-store metric rows. Units
// drive regression direction in diffs: cycles and rate read
// lower-is-better, req/Mcyc and tok/Mcyc higher-is-better, frac is
// directionless.
func reportMetrics(rep *serve.Report) []runstore.Metric {
	ms := []runstore.Metric{
		{Name: "p50 cycles", Value: float64(rep.P50), Unit: "cycles"},
		{Name: "p99 cycles", Value: float64(rep.P99), Unit: "cycles"},
		{Name: "p99.9 cycles", Value: float64(rep.P999), Unit: "cycles"},
		{Name: "miss rate", Value: rep.MissRate, Unit: "rate"},
		{Name: "tput req/Mcyc", Value: rep.Throughput, Unit: "req/Mcyc"},
		{Name: "pe util frac", Value: rep.PEUtil, Unit: "frac"},
	}
	if rep.Shed > 0 {
		ms = append(ms, runstore.Metric{Name: "shed count", Value: float64(rep.Shed), Unit: "count"})
	}
	if rep.Tokens > 0 {
		ms = append(ms,
			runstore.Metric{Name: "tokens count", Value: float64(rep.Tokens), Unit: "count"},
			runstore.Metric{Name: "tokens tok/Mcyc", Value: rep.TokensPerMcycle, Unit: "tok/Mcyc"})
	}
	return ms
}
