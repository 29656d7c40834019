// Package obs is the live observability layer: a zero-dependency,
// concurrency-safe instrumentation registry (counters, gauges and
// cycle histograms built on the streaming estimator in
// internal/hdr) with Prometheus-text and JSON exposition, plus a
// bounded scheduler decision ledger (see ledger.go) that attributes
// every MB-prefetch, CB-merge, early-eviction and CB-split decision
// to a cycle, network and stall cause.
//
// The layer is strictly opt-in: the simulator, serving and cluster
// paths thread a *Registry and *Ledger behind nil-check guards, so a
// run without observability pays nothing — no allocations, no atomic
// traffic, no locks. With observability on, counters and gauges are
// single atomic operations and a ledger append is one short critical
// section into a fixed ring. The simulator calls neither per event:
// it gathers a run's series and decisions run-local (a Log for the
// ledger) and publishes them whenever its event loop returns.
//
// Series names are opaque keys that may carry Prometheus-style
// labels inline, e.g. "aimt_serve_requests_total{class=\"cnn\"}".
// The exposition code treats everything before the first '{' as the
// metric family for # TYPE lines and sorts series bytewise, so
// scrapes are deterministic.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"aimt/internal/arch"
	"aimt/internal/hdr"
)

// Counter is a monotonically increasing int64 series. The zero value
// is ready for use; obtain shared instances from a Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored so the
// series stays monotone).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 series that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a concurrency-safe cycle-latency histogram wrapping
// the HDR-style streaming estimator from internal/hdr.
type Histogram struct {
	mu sync.Mutex
	h  hdr.Histogram
}

// Observe records one value.
func (h *Histogram) Observe(v arch.Cycles) {
	h.mu.Lock()
	h.h.Record(v)
	h.mu.Unlock()
}

// Merge folds every observation of a caller-owned histogram into h
// under one lock: a hot loop can record into a local hdr.Histogram
// and publish it in one step. The result is exactly that of observing
// each value.
func (h *Histogram) Merge(o *hdr.Histogram) {
	h.mu.Lock()
	h.h.Merge(o)
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count int         `json:"count"`
	Sum   float64     `json:"sum"`
	Min   arch.Cycles `json:"min"`
	Max   arch.Cycles `json:"max"`
	P50   arch.Cycles `json:"p50"`
	P95   arch.Cycles `json:"p95"`
	P99   arch.Cycles `json:"p99"`
	P999  arch.Cycles `json:"p999"`
}

// Snapshot summarizes the histogram under its lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count: h.h.Count(),
		Sum:   h.h.Sum(),
		Min:   h.h.Min(),
		Max:   h.h.Max(),
		P50:   h.h.Quantile(50),
		P95:   h.h.Quantile(95),
		P99:   h.h.Quantile(99),
		P999:  h.h.Quantile(99.9),
	}
}

// Registry holds named series. Lookups are get-or-create and return
// stable handles, so hot paths resolve their series once and then
// touch only the atomic values.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every series. Values are read per-series, so a
// snapshot taken during a run is internally slightly skewed but never
// torn.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON emits the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// family returns the metric family of a series name: everything
// before the inline label block, if any.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// suffixed inserts a family suffix before a series name's label
// block: suffixed(`h{c="x"}`, "_sum") is `h_sum{c="x"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// Label returns the series name with key="value" appended to its
// inline label block, creating the block when the name has none.
// Emitters use it to build per-class / per-chip series keys once,
// outside their hot paths.
func Label(name, key, value string) string { return withLabel(name, key, value) }

// withLabel appends key="value" to a series name's label block,
// creating the block when the name has none.
func withLabel(name, key, value string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + key + "=" + strconv.Quote(value) + "}"
	}
	return name + "{" + key + "=" + strconv.Quote(value) + "}"
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format: counters and gauges verbatim, histograms as
// summaries with quantile labels. Series are sorted bytewise and
// # HELP and # TYPE lines are emitted once per family (curated help
// text with a name-derived fallback), so the output is deterministic
// for a fixed registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()

	var b strings.Builder
	typed := make(map[string]bool)
	typeLine := func(fam, kind string) {
		if !typed[fam] {
			typed[fam] = true
			fmt.Fprintf(&b, "# HELP %s %s\n", fam, helpFor(fam))
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, kind)
		}
	}

	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		typeLine(family(name), "counter")
		fmt.Fprintf(&b, "%s %d\n", name, snap.Counters[name])
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		typeLine(family(name), "gauge")
		fmt.Fprintf(&b, "%s %s\n", name, fmtFloat(snap.Gauges[name]))
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		typeLine(family(name), "summary")
		fmt.Fprintf(&b, "%s %d\n", withLabel(name, "quantile", "0.5"), h.P50)
		fmt.Fprintf(&b, "%s %d\n", withLabel(name, "quantile", "0.95"), h.P95)
		fmt.Fprintf(&b, "%s %d\n", withLabel(name, "quantile", "0.99"), h.P99)
		fmt.Fprintf(&b, "%s %d\n", withLabel(name, "quantile", "0.999"), h.P999)
		fmt.Fprintf(&b, "%s %s\n", suffixed(name, "_sum"), fmtFloat(h.Sum))
		fmt.Fprintf(&b, "%s %d\n", suffixed(name, "_count"), h.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}
