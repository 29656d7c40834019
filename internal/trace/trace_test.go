package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aimt/internal/arch"
)

func sample() []Event {
	return []Event{
		{"mem", "MB:a", 0, 0, 0, 0, 10},
		{"pe", "CB:a", 0, 0, 0, 10, 40},
		{"mem", "MB:b", 1, 0, 0, 10, 30},
		{"pe", "CB:b", 1, 0, 0, 40, 50},
		{"host", "host-in", 1, -1, -1, 0, 5},
	}
}

// TestChromeTraceRoundTrips checks that an engine-track export emits
// every event exactly once as a complete slice, on its engine's TID
// and with its identity args, after the process and thread names.
func TestChromeTraceRoundTrips(t *testing.T) {
	evs := sample()
	var buf bytes.Buffer
	if err := WriteChromeTracks(&buf, EngineTracks(evs, 1, "mix")); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	type slice struct {
		name, cat        string
		ts, dur, tid     float64
		net, layer, iter float64
	}
	var meta int
	got := map[slice]int{}
	for _, e := range out {
		switch e["ph"] {
		case "M":
			meta++
		case "X":
			if e["pid"] != float64(1) {
				t.Errorf("slice pid = %v, want 1", e["pid"])
			}
			a := e["args"].(map[string]any)
			got[slice{e["name"].(string), e["cat"].(string), e["ts"].(float64), e["dur"].(float64), e["tid"].(float64),
				a["net"].(float64), a["layer"].(float64), a["iter"].(float64)}]++
		default:
			t.Errorf("unexpected record %v", e)
		}
	}
	// One process name plus one thread name per engine.
	if meta != 4 {
		t.Errorf("metadata records = %d, want 4", meta)
	}
	if len(got) != len(evs) {
		t.Fatalf("distinct slices = %d, want %d: %v", len(got), len(evs), got)
	}
	tids := map[string]float64{"mem": 1, "pe": 2, "host": 3}
	for _, e := range evs {
		k := slice{e.Name, e.Engine, float64(e.Start), float64(e.End - e.Start), tids[e.Engine],
			float64(e.Net), float64(e.Layer), float64(e.Iter)}
		if got[k] != 1 {
			t.Errorf("event %+v emitted %d times, want once", e, got[k])
		}
	}
}

func TestGanttRendersRows(t *testing.T) {
	g := Gantt(sample(), 50, 50)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	if !strings.HasPrefix(lines[1], "mem") || !strings.HasPrefix(lines[2], "pe") || !strings.HasPrefix(lines[3], "host") {
		t.Errorf("row order wrong:\n%s", g)
	}
	// mem row: net 0 occupies the first fifth, net 1 next.
	mem := lines[1][6:]
	if mem[0] != '0' {
		t.Errorf("mem row start = %q", mem[:10])
	}
	if !strings.Contains(mem, "1") {
		t.Errorf("mem row missing net 1: %q", mem)
	}
	// pe row has idle dots at the very start.
	pe := lines[2][6:]
	if pe[0] != '.' {
		t.Errorf("pe row start = %q, want idle", pe[:5])
	}
}

func TestGanttInfersMakespan(t *testing.T) {
	g := Gantt(sample(), 0, 40)
	if !strings.Contains(g, "cycles 0..50") {
		t.Errorf("inferred makespan missing: %q", strings.SplitN(g, "\n", 2)[0])
	}
	if Gantt(sample(), 0, 0) == "" {
		t.Error("default width produced empty chart")
	}
	if got := Gantt(nil, 0, 10); got != "" {
		t.Errorf("empty event list chart = %q", got)
	}
}

func TestGanttOverlapMarker(t *testing.T) {
	// Two nets sharing one cell of the pe row.
	g := Gantt([]Event{
		{"pe", "CB", 0, 0, 0, 0, 10},
		{"pe", "CB", 1, 0, 0, 5, 10},
	}, 10, 2)
	lines := strings.Split(g, "\n")
	pe := lines[2][6:]
	if !strings.Contains(pe, "*") {
		t.Errorf("overlapping nets not marked with '*': %q", pe)
	}
}

func TestGanttManyNetsWrapDigits(t *testing.T) {
	// Net 12 renders as digit 2.
	g := Gantt([]Event{{"pe", "CB", 12, 0, 0, 0, 10}}, 10, 10)
	if !strings.Contains(g, "2") {
		t.Errorf("net index not rendered modulo 10:\n%s", g)
	}
}

func TestUtilizationSeries(t *testing.T) {
	evs := sample()
	pts := UtilizationSeries(evs, 50, 10)
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	// Window 0 (0-10): mem fully busy (MB:a), pe idle.
	if pts[0].Mem != 1.0 || pts[0].PE != 0.0 {
		t.Errorf("window 0 = %+v", pts[0])
	}
	// Window 1 (10-20): mem busy with MB:b, pe busy with CB:a.
	if pts[1].Mem != 1.0 || pts[1].PE != 1.0 {
		t.Errorf("window 1 = %+v", pts[1])
	}
	// Window 3 (30-40): mem idle, pe busy.
	if pts[3].Mem != 0.0 || pts[3].PE != 1.0 {
		t.Errorf("window 3 = %+v", pts[3])
	}
	for _, p := range pts {
		if p.Mem < 0 || p.Mem > 1 || p.PE < 0 || p.PE > 1 {
			t.Errorf("window %d out of range: %+v", p.Start, p)
		}
	}
	if got := UtilizationSeries(evs, 0, 10); got != nil {
		t.Error("zero makespan series != nil")
	}
	if got := UtilizationSeries(evs, 50, 0); got != nil {
		t.Error("zero window series != nil")
	}
}

func TestPartialWindowAccounting(t *testing.T) {
	// One event straddling two windows.
	pts := UtilizationSeries([]Event{{"pe", "CB", 0, 0, 0, 5, 15}}, 20, 10)
	if pts[0].PE != 0.5 || pts[1].PE != 0.5 {
		t.Errorf("straddling event split = %f/%f, want 0.5/0.5", pts[0].PE, pts[1].PE)
	}
}

func TestEventTypeFields(t *testing.T) {
	e := Event{Engine: "mem", Name: "MB:x", Net: 2, Layer: 3, Iter: 4, Start: arch.Cycles(1), End: arch.Cycles(9)}
	if e.End-e.Start != 8 {
		t.Error("cycle arithmetic broken")
	}
}
