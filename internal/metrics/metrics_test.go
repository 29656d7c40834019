package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"aimt/internal/arch"
	"aimt/internal/sim"
)

func TestSpeedup(t *testing.T) {
	base := &sim.Result{Makespan: 1000}
	fast := &sim.Result{Makespan: 500}
	if got := Speedup(base, fast); got != 2 {
		t.Errorf("Speedup = %f, want 2", got)
	}
	if got := Speedup(base, base); got != 1 {
		t.Errorf("self speedup = %f, want 1", got)
	}
	if got := Speedup(base, &sim.Result{}); got != 0 {
		t.Errorf("zero makespan speedup = %f, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 4}, 2},
		{[]float64{2, 2, 2}, 2},
		{[]float64{1, 0, 4}, 0},
		{[]float64{1, -1}, 0},
	}
	for _, tc := range cases {
		if got := GeoMean(tc.in); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("GeoMean(%v) = %f, want %f", tc.in, got, tc.want)
		}
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	f := func(a, b, c uint16) bool {
		vals := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(vals)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSTPAndANTT(t *testing.T) {
	alone := []arch.Cycles{100, 200}
	shared := &sim.Result{NetFinish: []arch.Cycles{200, 400}}
	// Each net took 2x its alone time: STP = 0.5 + 0.5 = 1, ANTT = 2.
	if got := STP(alone, shared); math.Abs(got-1) > 1e-9 {
		t.Errorf("STP = %f, want 1", got)
	}
	if got := ANTT(alone, shared); math.Abs(got-2) > 1e-9 {
		t.Errorf("ANTT = %f, want 2", got)
	}
	// Perfect sharing: STP = n, ANTT = 1.
	perfect := &sim.Result{NetFinish: []arch.Cycles{100, 200}}
	if got := STP(alone, perfect); math.Abs(got-2) > 1e-9 {
		t.Errorf("perfect STP = %f, want 2", got)
	}
	if got := ANTT(alone, perfect); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect ANTT = %f, want 1", got)
	}
	if got := ANTT(nil, perfect); got != 0 {
		t.Errorf("empty ANTT = %f", got)
	}
}

func TestPercentile(t *testing.T) {
	vals := []arch.Cycles{50, 10, 40, 20, 30}
	cases := []struct {
		p    float64
		want arch.Cycles
	}{
		{0, 10}, {20, 10}, {50, 30}, {99, 50}, {100, 50},
	}
	for _, tc := range cases {
		if got := Percentile(vals, tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
	// The input must not be mutated.
	if vals[0] != 50 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("mix", "speedup")
	tbl.AddRow("RN34+GNMT", "1.366")
	tbl.AddRow("short")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "mix") || !strings.Contains(lines[0], "speedup") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns align: all lines equal width.
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) != len(lines[0]) {
			t.Errorf("line %d width %d != header width %d", i, len(lines[i]), len(lines[0]))
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := F(1.23456); got != "1.235" {
		t.Errorf("F = %q", got)
	}
	if got := Pct(0.1234); got != "12.3%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"balanced", []float64{3, 3, 3, 3}, 0},
		{"all zero", []float64{0, 0, 0}, 0},
		{"one hot", []float64{2, 0, 0, 0}, 3},
		{"mild skew", []float64{2, 1, 1}, 0.5},
	}
	for _, tc := range cases {
		if got := Imbalance(tc.vals); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Imbalance(%v) = %v, want %v", tc.name, tc.vals, got, tc.want)
		}
	}
}

// TestEmptyInputGuards sweeps the derived-metric helpers with empty or
// zero-valued inputs: none may panic and all must return zeros.
func TestEmptyInputGuards(t *testing.T) {
	empty := &sim.Result{}
	if Speedup(empty, empty) != 0 {
		t.Error("Speedup on empty results != 0")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	if STP(nil, empty) != 0 {
		t.Error("STP with no networks != 0")
	}
	if ANTT(nil, empty) != 0 {
		t.Error("ANTT with no networks != 0")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}
