package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"aimt/internal/runstore"
)

// runOf converts a report into a run-store row, so /runs and
// aimt-benchjson -diff can read benchmark results.
func runOf(r *report, commit string) runstore.Run {
	run := runstore.Run{
		Commit: commit,
		Source: "benchmark",
		Labels: map[string]string{
			"workload": r.workload,
			"seed":     strconv.FormatInt(r.seed, 10),
			"commit":   commit,
			"traced":   strconv.FormatBool(r.traced),
			"digest":   fmt.Sprintf("%016x", r.digest),
		},
	}
	for _, d := range r.defs {
		run.Metrics = append(run.Metrics, runstore.Metric{Name: d.name, Value: r.values[d.name], Unit: d.unit})
	}
	run.Metrics = append(run.Metrics,
		runstore.Metric{Name: "attempted", Value: float64(r.attempted), Unit: "count"},
		runstore.Metric{Name: "failed", Value: float64(r.failed), Unit: "count"})
	return run
}

// record writes one run per report to a JSON file and/or a run store.
func record(reports []*report, jsonPath, storeDir string) error {
	if jsonPath == "" && storeDir == "" {
		return nil
	}
	commit := runstore.CurrentCommit()
	runs := make([]runstore.Run, len(reports))
	for i, r := range reports {
		runs[i] = runOf(r, commit)
	}
	if storeDir != "" {
		st, err := runstore.Open(storeDir)
		if err != nil {
			return err
		}
		for i := range runs {
			if runs[i], err = st.Append(runs[i]); err != nil {
				return fmt.Errorf("runstore: %w", err)
			}
		}
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(runs, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
