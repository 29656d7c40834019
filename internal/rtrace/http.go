package rtrace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"aimt/internal/analysis"
	"aimt/internal/trace"
)

// Attach wires the request-trace surface onto an admin mux:
//
//	/requests — attribution report, tail exemplars and the sampled
//	            recent ring as indented JSON.
func Attach(mux *http.ServeMux, st *Store) {
	mux.HandleFunc("/requests", func(w http.ResponseWriter, r *http.Request) {
		total, shed, sampled := st.Totals()
		body := struct {
			Requests    int           `json:"requests"`
			Shed        int           `json:"shed"`
			Sampled     int           `json:"sampled"`
			SampleEvery int           `json:"sample_every"`
			Attribution []Attribution `json:"attribution"`
			Exemplars   []RequestSpan `json:"exemplars"`
			Recent      []RequestSpan `json:"recent"`
		}{
			Requests:    total,
			Shed:        shed,
			Sampled:     sampled,
			SampleEvery: st.SampleEvery(),
			Attribution: st.Attribution(),
			Exemplars:   st.Exemplars(),
			Recent:      st.Recent(),
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
}

// maxWaterfallRows bounds the dashboard panel; the full exemplar set
// stays available on /requests.
const maxWaterfallRows = 8

// WaterfallHTML renders the store's worst exemplars as an HTML
// section with an inline waterfall SVG, for embedding in the /runs
// dashboard. Empty when no exemplars are retained yet.
func (st *Store) WaterfallHTML() string {
	ex := st.Exemplars()
	if len(ex) == 0 {
		return ""
	}
	if len(ex) > maxWaterfallRows {
		ex = ex[:maxWaterfallRows]
	}
	rows := make([]analysis.WaterfallRow, 0, len(ex))
	for _, sp := range ex {
		row := analysis.WaterfallRow{
			Label: fmt.Sprintf("req %d · %s · %s", sp.Req, sp.Class, sp.Run),
		}
		for _, e := range sp.Entries {
			for _, iv := range e.Intervals {
				row.Segments = append(row.Segments, analysis.WaterfallSegment{
					Kind:  iv.Kind.String(),
					Start: float64(iv.Start - sp.Arrive),
					End:   float64(iv.End - sp.Arrive),
				})
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("<h2>Tail exemplars</h2>\n")
	b.WriteString(`<p class="sub">Worst-latency requests per class, cycle-exact latency attribution. Full spans at <a href="/requests">/requests</a>.</p>` + "\n")
	b.WriteString(analysis.WaterfallSVG(analysis.Waterfall{
		Title:  "Tail exemplar waterfalls",
		XLabel: "cycles since arrival",
		Kinds:  segNames[:],
	}, rows))
	return b.String()
}

// Tracks renders request spans as Perfetto tracks under one shared
// "requests" process: one thread per span, one slice per attributed
// interval (slice name = segment kind, net = request id, layer =
// stream entry).
func Tracks(pid int, spans []RequestSpan) []trace.Track {
	var out []trace.Track
	for ti, sp := range spans {
		var evs []trace.Event
		for _, e := range sp.Entries {
			for _, iv := range e.Intervals {
				evs = append(evs, trace.Event{
					Engine: "request", Name: iv.Kind.String(),
					Net: sp.Req, Layer: e.Entry, Iter: -1,
					Start: iv.Start, End: iv.End,
				})
			}
		}
		label := fmt.Sprintf("req %d %s", sp.Req, sp.Class)
		if sp.Missed {
			label += " (missed)"
		}
		out = append(out, trace.Track{
			PID: pid, TID: ti + 1,
			Process: "requests", Thread: label,
			Events: evs,
		})
	}
	return out
}
