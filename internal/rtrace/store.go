package rtrace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"aimt/internal/arch"
	"aimt/internal/obs"
)

// Options bound what a Store retains. The zero value picks sensible
// defaults; Store never grows without bound regardless of traffic.
type Options struct {
	// SampleEvery keeps one in every N finished spans in the recent
	// ring (1 keeps all). <= 0 defaults to 16. Tail exemplars are
	// retained independently of sampling.
	SampleEvery int

	// WorstN is how many worst-latency exemplars to keep per class.
	// <= 0 defaults to 8.
	WorstN int

	// RingCap bounds the recent-span ring. <= 0 defaults to 256.
	RingCap int
}

func (o Options) withDefaults() Options {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 16
	}
	if o.WorstN <= 0 {
		o.WorstN = 8
	}
	if o.RingCap <= 0 {
		o.RingCap = 256
	}
	return o
}

// phaseAgg accumulates segment cycles for one (class, phase) pair.
type phaseAgg struct {
	entries int
	latency arch.Cycles
	segs    [nSegKinds]arch.Cycles // by kind
}

// classAgg accumulates one class's request population.
type classAgg struct {
	requests int
	shed     int
	missed   int
	latency  arch.Cycles
	segs     [nSegKinds]arch.Cycles // by kind
	phases   map[string]*phaseAgg
	worst    []RequestSpan // latency-descending, len <= WorstN
}

// Store retains bounded request-trace state across runs: worst-N
// exemplars per class (always, regardless of sampling), a sampled
// ring of recent spans, and running attribution aggregates. All
// methods are safe for concurrent use; a nil *Store is inert.
type Store struct {
	mu      sync.Mutex
	opt     Options
	total   int // finished spans seen
	shed    int // shed spans seen
	sampled int // spans kept in the ring overall
	classes map[string]*classAgg
	ring    []RequestSpan
	ringAt  int

	// published counter values, so Publish emits deltas.
	pubTotal, pubShed, pubSampled int
}

// NewStore builds a Store with the given bounds.
func NewStore(opt Options) *Store {
	return &Store{opt: opt.withDefaults(), classes: map[string]*classAgg{}}
}

// SampleEvery reports the store's 1-in-N sampling rate.
func (st *Store) SampleEvery() int { return st.opt.SampleEvery }

// AddRun folds one run's spans into the store.
func (st *Store) AddRun(spans []RequestSpan) {
	if st == nil || len(spans) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sp := range spans {
		ca := st.classes[sp.Class]
		if ca == nil {
			ca = &classAgg{phases: map[string]*phaseAgg{}}
			st.classes[sp.Class] = ca
		}
		if sp.Shed {
			st.shed++
			ca.shed++
			continue
		}
		st.total++
		ca.requests++
		ca.latency += sp.Latency
		if sp.Missed {
			ca.missed++
		}
		for _, s := range sp.Totals {
			ca.segs[s.Kind] += s.Cycles
		}
		for _, e := range sp.Entries {
			if e.Phase == "" { // single-phase class: the class row already covers it
				continue
			}
			pa := ca.phases[e.Phase]
			if pa == nil {
				pa = &phaseAgg{}
				ca.phases[e.Phase] = pa
			}
			pa.entries++
			pa.latency += e.Finish - e.Arrive
			for _, s := range e.Segments {
				pa.segs[s.Kind] += s.Cycles
			}
		}
		st.addWorst(ca, sp)
		if (st.total-1)%st.opt.SampleEvery == 0 {
			st.sampled++
			if len(st.ring) < st.opt.RingCap {
				st.ring = append(st.ring, sp)
			} else {
				st.ring[st.ringAt] = sp
			}
			st.ringAt = (st.ringAt + 1) % st.opt.RingCap
		}
	}
}

// addWorst inserts sp into the class's latency-descending exemplar
// list, keeping at most WorstN entries.
func (st *Store) addWorst(ca *classAgg, sp RequestSpan) {
	i := sort.Search(len(ca.worst), func(i int) bool { return ca.worst[i].Latency < sp.Latency })
	if i >= st.opt.WorstN {
		return
	}
	ca.worst = append(ca.worst, RequestSpan{})
	copy(ca.worst[i+1:], ca.worst[i:])
	ca.worst[i] = sp
	if len(ca.worst) > st.opt.WorstN {
		ca.worst = ca.worst[:st.opt.WorstN]
	}
}

// tail sums the retained exemplars' segments by kind, and their
// latencies.
func (ca *classAgg) tail() (segs [nSegKinds]arch.Cycles, latency arch.Cycles) {
	for _, sp := range ca.worst {
		latency += sp.Latency
		for _, s := range sp.Totals {
			segs[s.Kind] += s.Cycles
		}
	}
	return segs, latency
}

// Totals reports (finished, shed, ring-sampled) span counts.
func (st *Store) Totals() (total, shed, sampled int) {
	if st == nil {
		return 0, 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total, st.shed, st.sampled
}

// Exemplars returns every retained tail exemplar, worst first
// (latency descending, class name as tie-break).
func (st *Store) Exemplars() []RequestSpan {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []RequestSpan
	for _, name := range st.classNames() {
		out = append(out, st.classes[name].worst...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency > out[j].Latency
		}
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Req < out[j].Req
	})
	return out
}

// Worst returns the single worst-latency exemplar across classes.
func (st *Store) Worst() (RequestSpan, bool) {
	ex := st.Exemplars()
	if len(ex) == 0 {
		return RequestSpan{}, false
	}
	return ex[0], true
}

// Recent returns the sampled ring, oldest first.
func (st *Store) Recent() []RequestSpan {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]RequestSpan, 0, len(st.ring))
	if len(st.ring) == st.opt.RingCap {
		out = append(out, st.ring[st.ringAt:]...)
		out = append(out, st.ring[:st.ringAt]...)
	} else {
		out = append(out, st.ring...)
	}
	return out
}

func (st *Store) classNames() []string {
	names := make([]string, 0, len(st.classes))
	for name := range st.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SegmentShare is one segment's share of a population's latency.
type SegmentShare struct {
	Kind   SegKind     `json:"kind"`
	Cycles arch.Cycles `json:"cycles"`
	Share  float64     `json:"share"`
}

// Attribution is one row of the latency-attribution report: a whole
// class (Phase == "") or one phase of it.
type Attribution struct {
	Class string `json:"class"`
	Phase string `json:"phase,omitempty"`

	// Requests counts finished requests for class rows, entries for
	// phase rows. Shed and Missed are class-row only.
	Requests int `json:"requests"`
	Shed     int `json:"shed,omitempty"`
	Missed   int `json:"missed,omitempty"`

	// TotalLatency is the summed latency of the population; Mean is
	// its per-kind decomposition (shares of TotalLatency).
	TotalLatency arch.Cycles    `json:"total_latency"`
	Mean         []SegmentShare `json:"mean"`

	// Tail decomposes the retained worst-N exemplars the same way;
	// class rows only. WorstReq/WorstLatency identify the worst one.
	Tail         []SegmentShare `json:"tail,omitempty"`
	WorstReq     int            `json:"worst_req,omitempty"`
	WorstLatency arch.Cycles    `json:"worst_latency,omitempty"`
}

func shares(segs *[nSegKinds]arch.Cycles, total arch.Cycles) []SegmentShare {
	var out []SegmentShare
	for k, c := range segs {
		if c == 0 {
			continue
		}
		sh := SegmentShare{Kind: SegKind(k), Cycles: c}
		if total > 0 {
			sh.Share = float64(c) / float64(total)
		}
		out = append(out, sh)
	}
	return out
}

// Attribution builds the report: for each class (sorted by name) one
// class row followed by its phase rows (sorted by phase name).
func (st *Store) Attribution() []Attribution {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []Attribution
	for _, name := range st.classNames() {
		ca := st.classes[name]
		row := Attribution{
			Class:        name,
			Requests:     ca.requests,
			Shed:         ca.shed,
			Missed:       ca.missed,
			TotalLatency: ca.latency,
			Mean:         shares(&ca.segs, ca.latency),
		}
		if len(ca.worst) > 0 {
			tail, tailLat := ca.tail()
			row.Tail = shares(&tail, tailLat)
			row.WorstReq = ca.worst[0].Req
			row.WorstLatency = ca.worst[0].Latency
		}
		out = append(out, row)

		phases := make([]string, 0, len(ca.phases))
		for ph := range ca.phases {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, ph := range phases {
			pa := ca.phases[ph]
			out = append(out, Attribution{
				Class:        name,
				Phase:        ph,
				Requests:     pa.entries,
				TotalLatency: pa.latency,
				Mean:         shares(&pa.segs, pa.latency),
			})
		}
	}
	return out
}

// Publish emits the store's state as aimt_rtrace_* series: traffic
// counters (delta-tracked, so repeated publishes don't double-count)
// and per-class attribution-share gauges.
func (st *Store) Publish(reg *obs.Registry) {
	if st == nil || reg == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	reg.Counter("aimt_rtrace_requests_total").Add(int64(st.total - st.pubTotal))
	reg.Counter("aimt_rtrace_shed_total").Add(int64(st.shed - st.pubShed))
	reg.Counter("aimt_rtrace_sampled_total").Add(int64(st.sampled - st.pubSampled))
	st.pubTotal, st.pubShed, st.pubSampled = st.total, st.shed, st.sampled
	for _, name := range st.classNames() {
		ca := st.classes[name]
		cl := func(metric string) string { return obs.Label(metric, "class", name) }
		if ca.latency > 0 {
			for k, c := range ca.segs {
				g := obs.Label(cl("aimt_rtrace_mean_share"), "segment", segNames[k])
				reg.Gauge(g).Set(float64(c) / float64(ca.latency))
			}
		}
		if len(ca.worst) > 0 {
			tail, tailLat := ca.tail()
			if tailLat > 0 {
				for k, c := range tail {
					g := obs.Label(cl("aimt_rtrace_tail_share"), "segment", segNames[k])
					reg.Gauge(g).Set(float64(c) / float64(tailLat))
				}
			}
			reg.Gauge(cl("aimt_rtrace_worst_latency_cycles")).Set(float64(ca.worst[0].Latency))
		}
	}
}

// PrintAttribution renders the report as a text table: one line per
// class, indented lines per phase, with percentage decompositions.
func PrintAttribution(w io.Writer, rows []Attribution) error {
	for _, row := range rows {
		var err error
		if row.Phase == "" {
			_, err = fmt.Fprintf(w, "%-12s %6d req  %4d shed  %4d missed  %s\n",
				row.Class, row.Requests, row.Shed, row.Missed, shareString(row.Mean))
			if err == nil && len(row.Tail) > 0 {
				_, err = fmt.Fprintf(w, "%-12s tail (worst req %d, %d cyc): %s\n",
					"", row.WorstReq, int64(row.WorstLatency), shareString(row.Tail))
			}
		} else {
			_, err = fmt.Fprintf(w, "  %-10s %6d entries  %s\n",
				row.Phase, row.Requests, shareString(row.Mean))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func shareString(ss []SegmentShare) string {
	if len(ss) == 0 {
		return "(no cycles)"
	}
	s := ""
	for i, sh := range ss {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.0f%% %s", sh.Share*100, sh.Kind)
	}
	return s
}
