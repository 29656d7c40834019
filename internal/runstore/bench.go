package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// BenchBenchmark is one parsed `go test -bench` result line, or the
// median of a benchmark's repeated samples; the JSON shape of the
// checked-in BENCH_*.json artifacts.
type BenchBenchmark struct {
	Pkg          string             `json:"pkg"`
	Name         string             `json:"name"`
	Iterations   int64              `json:"iterations"`
	NsPerOp      float64            `json:"ns_per_op"`
	BytesPerOp   float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp  float64            `json:"allocs_per_op,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	BlocksPerSec float64            `json:"blocks_per_sec,omitempty"`

	// Samples counts the result lines folded into the row; NsMin and
	// NsMax are the fastest and slowest of their ns/op, the spread
	// behind the median NsPerOp. All three are zero in reports written
	// before rows kept their spread.
	Samples int     `json:"samples,omitempty"`
	NsMin   float64 `json:"ns_min,omitempty"`
	NsMax   float64 `json:"ns_max,omitempty"`
}

// Key is the benchmark's stable identity across reports.
func (b BenchBenchmark) Key() string { return b.Pkg + "." + b.Name }

// BenchReport is the BENCH_*.json schema (also the benchcheck
// baseline schema), produced by cmd/aimt-benchjson.
type BenchReport struct {
	GOOS       string           `json:"goos,omitempty"`
	GOARCH     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks []BenchBenchmark `json:"benchmarks"`
}

// Run flattens the report into a store Run (source "bench"): one
// metric row per benchmark measurement, named "<pkg>.<name> <unit>".
func (rep *BenchReport) Run(id string) Run {
	r := Run{ID: id, Source: "bench", Labels: map[string]string{}}
	if rep.GOOS != "" {
		r.Labels["goos"] = rep.GOOS
	}
	if rep.GOARCH != "" {
		r.Labels["goarch"] = rep.GOARCH
	}
	if rep.CPU != "" {
		r.Labels["cpu"] = rep.CPU
	}
	for _, b := range rep.Benchmarks {
		add := func(unit string, v float64) {
			r.Metrics = append(r.Metrics, Metric{Name: b.Key() + " " + unit, Value: v, Unit: unit})
		}
		add("ns/op", b.NsPerOp)
		if b.BytesPerOp > 0 {
			add("B/op", b.BytesPerOp)
		}
		if b.AllocsPerOp > 0 {
			add("allocs/op", b.AllocsPerOp)
		}
		if b.BlocksPerSec > 0 {
			add("blocks/s", b.BlocksPerSec)
		}
		units := make([]string, 0, len(b.Metrics))
		for u := range b.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			add(u, b.Metrics[u])
		}
	}
	return r
}

// LoadBenchReport parses a BENCH_*.json (or bench baseline) file.
func LoadBenchReport(path string) (*BenchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return &rep, nil
}

// LoadBenchFile loads a bench JSON artifact as a Run whose ID is the
// file's base name without extension (BENCH_3.json -> BENCH_3).
func LoadBenchFile(path string) (Run, error) {
	rep, err := LoadBenchReport(path)
	if err != nil {
		return Run{}, err
	}
	id := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	r := rep.Run(id)
	r.Source = "seed"
	return r, nil
}

// LoadBenchGlob loads every bench artifact matching the glob as seed
// history, ordered by trailing number then name, so the checked-in
// BENCH_3 -> BENCH_5 -> BENCH_8 files form a perf trajectory.
// A pattern matching nothing yields an empty, error-free history.
func LoadBenchGlob(pattern string) ([]Run, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	sort.Slice(paths, func(i, j int) bool {
		ni, iok := trailingNum(paths[i])
		nj, jok := trailingNum(paths[j])
		if iok && jok && ni != nj {
			return ni < nj
		}
		return paths[i] < paths[j]
	})
	var runs []Run
	for _, p := range paths {
		r, err := LoadBenchFile(p)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// trailingNum extracts the number ending a file's stem (BENCH_12.json
// -> 12).
func trailingNum(path string) (int, bool) {
	stem := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	i := len(stem)
	for i > 0 && stem[i-1] >= '0' && stem[i-1] <= '9' {
		i--
	}
	if i == len(stem) {
		return 0, false
	}
	n, err := strconv.Atoi(stem[i:])
	return n, err == nil
}
