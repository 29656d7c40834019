package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aimt/internal/runstore"
)

const benchText = `goos: linux
goarch: amd64
pkg: aimt
cpu: Test CPU
BenchmarkSimulatorThroughput-8   	      10	 3000000 ns/op	        12 blocks/op	      50 allocs/op
BenchmarkServeStream-8           	       5	28000000 ns/op	      50 allocs/op
`

func writeBench(t *testing.T, dir, name string, nsScale float64) string {
	t.Helper()
	rep, err := parse(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Benchmarks {
		rep.Benchmarks[i].NsPerOp *= nsScale
	}
	path := filepath.Join(dir, name)
	if err := saveReport(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

func saveReport(path string, rep *runstore.BenchReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "SimulatorThroughput" || b.NsPerOp != 3e6 || b.AllocsPerOp != 50 {
		t.Errorf("benchmark 0 = %+v", b)
	}
	if b.BlocksPerSec == 0 {
		t.Error("blocks/op metric did not yield BlocksPerSec")
	}
}

// TestCompareGatesMedianOfSamples: with `-count 3` the three samples
// of one benchmark fold into their median, so a last sample under the
// gate cannot hide a median over it, and the fold keeps one row per
// benchmark in first-seen order.
func TestCompareGatesMedianOfSamples(t *testing.T) {
	const samples = `pkg: aimt
BenchmarkServeStream-8   	10	300 ns/op	40 allocs/op
BenchmarkCluster8-8      	10	100 ns/op	10 allocs/op
BenchmarkServeStream-8   	10	250 ns/op	60 allocs/op
BenchmarkServeStream-8   	10	150 ns/op	50 allocs/op
`
	cur, err := parse(strings.NewReader(samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Benchmarks) != 2 || cur.Benchmarks[0].Name != "ServeStream" || cur.Benchmarks[1].Name != "Cluster8" {
		t.Fatalf("folded rows = %+v, want ServeStream then Cluster8", cur.Benchmarks)
	}
	if b := cur.Benchmarks[0]; b.NsPerOp != 250 || b.AllocsPerOp != 50 {
		t.Errorf("folded ServeStream = %+v, want median 250 ns/op, 50 allocs/op", b)
	}
	base := &runstore.BenchReport{Benchmarks: []runstore.BenchBenchmark{{Pkg: "aimt", Name: "ServeStream", NsPerOp: 100}}}
	if err := compare(cur, base, 2); err == nil || !strings.Contains(err.Error(), "250 ns/op") {
		t.Errorf("median 250 ns/op over the 2x gate of 100 passed: err=%v", err)
	}
}

// TestDiffSelfIsClean is the bench-compare contract's zero side: a
// run diffed against itself must exit cleanly.
func TestDiffSelfIsClean(t *testing.T) {
	dir := t.TempDir()
	p := writeBench(t, dir, "a.json", 1)
	if err := diff(p, p, 1.5); err != nil {
		t.Fatalf("self-diff failed: %v", err)
	}
}

// TestDiffFlagsRegression is the nonzero side: a 2× ns/op inflation
// must fail at the default 1.5× noise threshold and pass at 2.5×.
func TestDiffFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeBench(t, dir, "old.json", 1)
	slow := writeBench(t, dir, "slow.json", 2)
	err := diff(old, slow, 1.5)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("2x regression not flagged: err=%v", err)
	}
	if err := diff(old, slow, 2.5); err != nil {
		t.Fatalf("2x drift failed under 2.5x noise: %v", err)
	}
}

// TestLoadRunArgStore exercises the dir[#runID] form against a real
// store: default = latest run, fragment = that run, bad ID = error.
func TestLoadRunArgStore(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := parse(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Append(rep.Run(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rep.Run("")); err != nil {
		t.Fatal(err)
	}

	latest, err := loadRunArg(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest.ID == first.ID {
		t.Errorf("bare dir resolved to %s, want the later run", latest.ID)
	}
	got, err := loadRunArg(dir + "#" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != first.ID {
		t.Errorf("fragment resolved to %s, want %s", got.ID, first.ID)
	}
	if _, err := loadRunArg(dir + "#run-999999"); err == nil {
		t.Error("missing run ID did not error")
	}
}

// TestFoldKeepsSpread folds a fixed `make bench` transcript and pins
// every row's median beside the sample count and the fastest and
// slowest ns/op it came from, including an even sample count (median
// of the middle two) and a single sample (spread of one).
func TestFoldKeepsSpread(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []runstore.BenchBenchmark{
		{Pkg: "aimt", Name: "ServeStreamTraced", NsPerOp: 41e6, AllocsPerOp: 340, Samples: 5, NsMin: 39e6, NsMax: 52e6},
		{Pkg: "aimt/internal/rtrace", Name: "Build", NsPerOp: 1.475e6, AllocsPerOp: 46, Samples: 4, NsMin: 1.4e6, NsMax: 1.7e6},
		{Pkg: "aimt/internal/obs", Name: "LedgerNote", NsPerOp: 18, Samples: 1, NsMin: 18, NsMax: 18},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("folded %d rows, want %d", len(rep.Benchmarks), len(want))
	}
	for i, w := range want {
		b := rep.Benchmarks[i]
		if b.Key() != w.Key() || b.NsPerOp != w.NsPerOp || b.AllocsPerOp != w.AllocsPerOp ||
			b.Samples != w.Samples || b.NsMin != w.NsMin || b.NsMax != w.NsMax {
			t.Errorf("row %d: %s median %v allocs %v samples %d min %v max %v, want %s median %v allocs %v samples %d min %v max %v",
				i, b.Key(), b.NsPerOp, b.AllocsPerOp, b.Samples, b.NsMin, b.NsMax,
				w.Key(), w.NsPerOp, w.AllocsPerOp, w.Samples, w.NsMin, w.NsMax)
		}
	}
	buf, err := json.Marshal(rep.Benchmarks[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"samples":5`, `"ns_min":39000000`, `"ns_max":52000000`} {
		if !strings.Contains(string(buf), field) {
			t.Errorf("row JSON %s lacks %s", buf, field)
		}
	}
}
