// Command aimt-benchjson converts `go test -bench` output into a
// machine-readable JSON report, gates CI on throughput regressions,
// diffs any two recorded runs, and appends bench results to a run
// store.
//
//	go test -run '^$' -bench Throughput -benchmem ./... | aimt-benchjson -out BENCH_9.json
//	aimt-benchjson -in bench.txt -compare testdata/bench_baseline.json -threshold 2
//	aimt-benchjson -diff testdata/bench_baseline.json BENCH_9.json -noise 1.5
//	aimt-benchjson -diff runs/#run-000003 runs/          # store runs (dir[#id], default latest)
//	aimt-benchjson -in bench.txt -runstore runs/         # append to run history
//
// In -compare mode the exit status is non-zero if any baseline
// benchmark is missing from the input or its ns/op (or allocs/op)
// exceeds threshold × baseline — a deliberately generous gate that
// only trips on gross regressions (CI runners vary; small drift is
// expected).
//
// In -diff mode both arguments name a run: a BENCH_*.json report
// file, or a run-store directory with an optional #runID fragment
// (latest run when omitted). Every shared metric is compared in its
// unit's bad direction against the -noise threshold, the table is
// printed, and the exit status is non-zero when anything regressed
// beyond it — `make bench-compare` is this mode against the
// checked-in baseline.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"aimt/internal/runstore"
)

var procSuffix = regexp.MustCompile(`-\d+$`)

// parse converts `go test -bench` text into a report. BlocksPerSec is
// derived from the blocks/op metric the simulator benchmarks report,
// giving the headline engine-throughput number directly. Repeated
// samples of one benchmark (`go test -count N`) fold into one row
// holding the median of each field, so the gate and the diff judge
// every sample, not the last one, and the sample count and the
// fastest and slowest ns/op beside it.
func parse(r io.Reader) (*runstore.BenchReport, error) {
	rep := &runstore.BenchReport{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := runstore.BenchBenchmark{
			Pkg:        pkg,
			Name:       procSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), ""),
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		if blocks, ok := b.Metrics["blocks/op"]; ok && b.NsPerOp > 0 {
			b.BlocksPerSec = blocks / (b.NsPerOp * 1e-9)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	rep.Benchmarks = foldSamples(rep.Benchmarks)
	return rep, nil
}

// foldSamples folds rows sharing one Key into one row, in first-seen
// order, holding the median of each field over the samples, their
// count, and their minimum and maximum ns/op. The metric units are the
// first sample's: every sample of one benchmark reports the same ones.
func foldSamples(rows []runstore.BenchBenchmark) []runstore.BenchBenchmark {
	slot := map[string]int{}
	var groups [][]runstore.BenchBenchmark
	for _, b := range rows {
		i, ok := slot[b.Key()]
		if !ok {
			i = len(groups)
			slot[b.Key()] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], b)
	}
	out := make([]runstore.BenchBenchmark, len(groups))
	for i, g := range groups {
		out[i] = g[0]
		b := &out[i]
		b.Samples, b.NsMin, b.NsMax = len(g), g[0].NsPerOp, g[0].NsPerOp
		for _, s := range g[1:] {
			b.NsMin, b.NsMax = min(b.NsMin, s.NsPerOp), max(b.NsMax, s.NsPerOp)
		}
		if len(g) == 1 {
			continue
		}
		med := func(field func(runstore.BenchBenchmark) float64) float64 {
			vals := make([]float64, len(g))
			for j, b := range g {
				vals[j] = field(b)
			}
			slices.Sort(vals)
			n := len(vals)
			if n%2 == 1 {
				return vals[n/2]
			}
			return (vals[n/2-1] + vals[n/2]) / 2
		}
		b.Iterations = int64(med(func(b runstore.BenchBenchmark) float64 { return float64(b.Iterations) }))
		b.NsPerOp = med(func(b runstore.BenchBenchmark) float64 { return b.NsPerOp })
		b.BytesPerOp = med(func(b runstore.BenchBenchmark) float64 { return b.BytesPerOp })
		b.AllocsPerOp = med(func(b runstore.BenchBenchmark) float64 { return b.AllocsPerOp })
		b.BlocksPerSec = med(func(b runstore.BenchBenchmark) float64 { return b.BlocksPerSec })
		if g[0].Metrics != nil {
			b.Metrics = make(map[string]float64, len(g[0].Metrics))
			for unit := range g[0].Metrics {
				b.Metrics[unit] = med(func(b runstore.BenchBenchmark) float64 { return b.Metrics[unit] })
			}
		}
	}
	return out
}

// compare is the coarse CI gate (see -compare): missing benchmarks or
// gross ns/op / allocs/op regressions fail.
func compare(cur, base *runstore.BenchReport, threshold float64) error {
	got := map[string]runstore.BenchBenchmark{}
	for _, b := range cur.Benchmarks {
		got[b.Key()] = b
	}
	var failures []string
	for _, want := range base.Benchmarks {
		b, ok := got[want.Key()]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from benchmark run", want.Key()))
			continue
		}
		if want.NsPerOp > 0 && b.NsPerOp > threshold*want.NsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds %.1f× baseline %.0f ns/op",
				want.Key(), b.NsPerOp, threshold, want.NsPerOp))
			continue
		}
		// The allocation gate protects the allocation-free engine core:
		// a change that reintroduces per-event allocations shows up as
		// an order-of-magnitude allocs/op jump, far past the 2× limit.
		if want.AllocsPerOp > 0 && b.AllocsPerOp > threshold*want.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op exceeds %.1f× baseline %.0f allocs/op",
				want.Key(), b.AllocsPerOp, threshold, want.AllocsPerOp))
			continue
		}
		fmt.Printf("ok  %-50s %12.0f ns/op %8.0f allocs/op (baseline %.0f / %.0f, limit %.1f×)\n",
			want.Key(), b.NsPerOp, b.AllocsPerOp, want.NsPerOp, want.AllocsPerOp, threshold)
	}
	if len(failures) > 0 {
		return fmt.Errorf("throughput regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// loadRunArg resolves one -diff argument: a run-store directory
// (optionally "dir#runID", latest run by default) or a BENCH-style
// JSON report file.
func loadRunArg(arg string) (runstore.Run, error) {
	path, id, _ := strings.Cut(arg, "#")
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		st, err := runstore.Open(path)
		if err != nil {
			return runstore.Run{}, err
		}
		if id != "" {
			r, ok := st.Get(id)
			if !ok {
				return runstore.Run{}, fmt.Errorf("%s: no run %q", path, id)
			}
			return r, nil
		}
		runs := st.Runs()
		if len(runs) == 0 {
			return runstore.Run{}, fmt.Errorf("%s: empty run store", path)
		}
		return runs[len(runs)-1], nil
	}
	if id != "" {
		return runstore.Run{}, fmt.Errorf("%s: #runID selection needs a run-store directory", arg)
	}
	rep, err := runstore.LoadBenchReport(path)
	if err != nil {
		return runstore.Run{}, err
	}
	return rep.Run(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))), nil
}

// diff renders the metric-by-metric comparison and fails on any
// regression beyond the noise threshold.
func diff(oldArg, newArg string, noise float64) error {
	old, err := loadRunArg(oldArg)
	if err != nil {
		return err
	}
	new, err := loadRunArg(newArg)
	if err != nil {
		return err
	}
	d := runstore.DiffRuns(old, new, noise)
	if err := d.WriteText(os.Stdout); err != nil {
		return err
	}
	if d.Regressed() {
		return fmt.Errorf("%d metric(s) regressed beyond %.2fx noise", len(d.Regressions()), noise)
	}
	return nil
}

func main() {
	var (
		in        = flag.String("in", "", "bench output file (empty = stdin)")
		out       = flag.String("out", "", "write parsed JSON report to this file (empty = stdout unless -compare)")
		baseline  = flag.String("compare", "", "baseline JSON report to gate against")
		threshold = flag.Float64("threshold", 2.0, "fail -compare when ns/op exceeds threshold × baseline")
		diffMode  = flag.Bool("diff", false, "diff two runs (args: old new; BENCH json files or storeDir[#runID]) and fail on regressions beyond -noise")
		noise     = flag.Float64("noise", 1.5, "with -diff, multiplicative drift tolerated before a change counts as a regression")
		storeDir  = flag.String("runstore", "", "append the parsed bench report to the run store under this directory")
		runID     = flag.String("id", "", "with -runstore, record under this run ID (empty = assigned)")
	)
	flag.Parse()

	var err error
	if *diffMode {
		if flag.NArg() != 2 {
			err = errors.New("-diff needs exactly two arguments: old new")
		} else {
			err = diff(flag.Arg(0), flag.Arg(1), *noise)
		}
	} else {
		err = run(*in, *out, *baseline, *storeDir, *runID, *threshold)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "aimt-benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out, baseline, storeDir, runID string, threshold float64) error {
	src := io.Reader(os.Stdin)
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		return err
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	switch {
	case out != "":
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", out, len(rep.Benchmarks))
	case baseline == "" && storeDir == "":
		os.Stdout.Write(buf)
	}

	if storeDir != "" {
		st, err := runstore.Open(storeDir)
		if err != nil {
			return err
		}
		r := rep.Run(runID)
		r.Commit = runstore.CurrentCommit()
		stored, err := st.Append(r)
		if err != nil {
			return err
		}
		fmt.Printf("runstore: appended %s (%d metrics) to %s\n", stored.ID, len(stored.Metrics), storeDir)
	}

	if baseline != "" {
		base, err := runstore.LoadBenchReport(baseline)
		if err != nil {
			return err
		}
		return compare(rep, base, threshold)
	}
	return nil
}
