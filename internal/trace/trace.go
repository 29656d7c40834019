// Package trace renders per-engine occupancy intervals: as Chrome
// trace_event JSON (load in chrome://tracing or Perfetto), as an
// ASCII Gantt chart like the paper's timeline figures (Figs 4, 6, 9,
// 12, 13), and as windowed utilization series for Fig 7-style plots.
// It records nothing itself: the events come from the one occupancy
// log, rtrace.Collector, whose Events method replays them with their
// labels resolved at export time.
package trace

import (
	"fmt"
	"strings"

	"aimt/internal/arch"
)

// Event is one recorded occupancy interval.
type Event struct {
	// Engine is "mem", "pe" or "host".
	Engine string
	// Name labels the block, e.g. "MB:conv3_2".
	Name string
	// Net, Layer and Iter identify the block; Layer and Iter are -1
	// for host transfers.
	Net, Layer, Iter int
	// Start and End bound the interval in cycles.
	Start, End arch.Cycles
}

// Gantt renders the events as an ASCII timeline with one row per
// engine, width columns wide, covering [0, makespan]. Each cell shows
// the network index occupying the engine ('.' when idle, '*' when
// several nets share the cell).
func Gantt(evs []Event, makespan arch.Cycles, width int) string {
	if width <= 0 {
		width = 80
	}
	if makespan <= 0 {
		for _, e := range evs {
			if e.End > makespan {
				makespan = e.End
			}
		}
	}
	if makespan <= 0 {
		return ""
	}
	rows := map[string][]byte{}
	for _, eng := range []string{"mem", "pe", "host"} {
		rows[eng] = []byte(strings.Repeat(".", width))
	}
	cell := func(c arch.Cycles) int {
		i := int(int64(c) * int64(width) / int64(makespan))
		if i >= width {
			i = width - 1
		}
		return i
	}
	for _, e := range evs {
		row, ok := rows[e.Engine]
		if !ok {
			continue
		}
		mark := byte('0' + e.Net%10)
		for i := cell(e.Start); i <= cell(e.End-1) && i < width; i++ {
			switch row[i] {
			case '.':
				row[i] = mark
			case mark:
			default:
				row[i] = '*'
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles 0..%d, one column = %d cycles\n", makespan, int64(makespan)/int64(width))
	for _, eng := range []string{"mem", "pe", "host"} {
		fmt.Fprintf(&b, "%-5s %s\n", eng, rows[eng])
	}
	return b.String()
}

// UtilizationPoint is one window of a utilization time series.
type UtilizationPoint struct {
	// Start is the window's first cycle.
	Start arch.Cycles
	// Mem and PE are the busy fractions of the window.
	Mem, PE float64
}

// UtilizationSeries computes windowed busy fractions for the mem and
// pe engines over [0, makespan] using the given window size.
func UtilizationSeries(evs []Event, makespan, window arch.Cycles) []UtilizationPoint {
	if window <= 0 || makespan <= 0 {
		return nil
	}
	n := int((makespan + window - 1) / window)
	memBusy := make([]arch.Cycles, n)
	peBusy := make([]arch.Cycles, n)
	for _, e := range evs {
		var acc []arch.Cycles
		switch e.Engine {
		case "mem":
			acc = memBusy
		case "pe":
			acc = peBusy
		default:
			continue
		}
		for w := int(e.Start / window); w < n; w++ {
			lo := arch.Cycles(w) * window
			hi := lo + window
			if e.Start > lo {
				lo = e.Start
			}
			if e.End < hi {
				hi = e.End
			}
			if hi <= lo {
				break
			}
			acc[w] += hi - lo
		}
	}
	out := make([]UtilizationPoint, n)
	for i := range out {
		out[i] = UtilizationPoint{
			Start: arch.Cycles(i) * window,
			Mem:   float64(memBusy[i]) / float64(window),
			PE:    float64(peBusy[i]) / float64(window),
		}
	}
	return out
}
