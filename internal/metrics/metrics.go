// Package metrics derives the quantities the paper reports from raw
// simulation results — speedups, utilizations, SRAM high-water marks —
// and renders them as aligned text tables matching the figures' rows
// and series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"aimt/internal/arch"
	"aimt/internal/sim"
)

// Speedup returns baseline.Makespan / x.Makespan: how much faster x
// completed the same workload than the baseline run.
func Speedup(baseline, x *sim.Result) float64 {
	if x.Makespan <= 0 {
		return 0
	}
	return float64(baseline.Makespan) / float64(x.Makespan)
}

// GeoMean returns the geometric mean of the values; it returns 0 when
// the slice is empty or any value is non-positive.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// STP returns the system throughput of a shared run: the sum over
// networks of alone-time / shared-completion-time (Eyerman &
// Eeckhout's multi-program throughput metric; n would mean n networks
// ran as fast co-located as alone). alone[i] is network i's makespan
// when simulated solo; shared supplies the co-located per-network
// completion times.
func STP(alone []arch.Cycles, shared *sim.Result) float64 {
	var stp float64
	for i, a := range alone {
		if i < len(shared.NetFinish) && shared.NetFinish[i] > 0 {
			stp += float64(a) / float64(shared.NetFinish[i])
		}
	}
	return stp
}

// ANTT returns the average normalized turnaround time of a shared
// run: the mean over networks of shared-completion-time / alone-time
// (lower is better; 1 means sharing cost nothing). It is the fairness
// metric PREMA optimizes for.
func ANTT(alone []arch.Cycles, shared *sim.Result) float64 {
	var sum float64
	n := 0
	for i, a := range alone {
		if i < len(shared.NetFinish) && a > 0 {
			sum += float64(shared.NetFinish[i]) / float64(a)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Imbalance quantifies how unevenly a quantity is spread over a set of
// servers: the maximum share over the mean share, minus one. 0 means
// perfectly balanced; 1 means the busiest server carries double the
// average. Empty, single-element and all-zero inputs return 0.
func Imbalance(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	var top, sum float64
	for _, v := range vals {
		if v > top {
			top = v
		}
		sum += v
	}
	if sum <= 0 {
		return 0
	}
	return top*float64(len(vals))/sum - 1
}

// Percentile returns the p-th percentile (0..100) of the values using
// nearest-rank on a sorted copy; it returns 0 for an empty slice or a
// NaN p. Out-of-range p clamps to the extremes. For streams too long
// to hold a latency slice, use hdr.Histogram instead.
func Percentile(vals []arch.Cycles, p float64) arch.Cycles {
	if len(vals) == 0 || math.IsNaN(p) {
		return 0
	}
	sorted := append([]arch.Cycles(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Table renders rows as an aligned, pipe-separated text table.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.headers) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.headers))
	for i, h := range t.headers {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	var sep []string
	for _, w := range width {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, r := range t.rows {
		line(r[:len(t.headers)])
	}
	return b.String()
}

// F formats a float for table cells.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a fraction as a percentage for table cells.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
