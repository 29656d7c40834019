package serve

import (
	"math"
	"reflect"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/sched"
	"aimt/internal/sim"
)

func testConfig(t testing.TB) arch.Config {
	t.Helper()
	cfg := arch.PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestStreamReproducible: identical options yield identical streams,
// and changing only MeanGap preserves the request/class sequence while
// scaling the gaps — the property that makes load-curve points
// comparable.
func TestStreamReproducible(t *testing.T) {
	cfg := testConfig(t)
	opts := StreamOptions{Requests: 200, MeanGap: 10_000, Seed: 42}
	a, err := NewStream(cfg, DefaultClasses(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(cfg, DefaultClasses(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nets {
		if a.ClassOf[i] != b.ClassOf[i] || a.Arrivals[i] != b.Arrivals[i] || a.Deadlines[i] != b.Deadlines[i] {
			t.Fatalf("request %d differs between identically seeded streams", i)
		}
	}

	opts.MeanGap = 40_000
	c, err := NewStream(cfg, DefaultClasses(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nets {
		if a.ClassOf[i] != c.ClassOf[i] {
			t.Fatalf("request %d: class changed with MeanGap (%d vs %d)", i, a.ClassOf[i], c.ClassOf[i])
		}
	}
	// 4x the gap means 4x the arrival time, up to per-gap truncation.
	last := len(a.Arrivals) - 1
	if c.Arrivals[last] < 3*a.Arrivals[last] {
		t.Errorf("4x MeanGap stretched span only from %d to %d", a.Arrivals[last], c.Arrivals[last])
	}
	if got := a.OfferedLoad(); got <= 0 {
		t.Errorf("OfferedLoad = %v, want positive", got)
	}
	if a.OfferedLoad() < 3.9*c.OfferedLoad() {
		t.Errorf("load did not scale with rate: %v vs %v", a.OfferedLoad(), c.OfferedLoad())
	}
}

// TestStreamShape: arrivals are non-decreasing, deadlines sit strictly
// after arrivals, and the weighted mix is respected on average.
func TestStreamShape(t *testing.T) {
	cfg := testConfig(t)
	s, err := NewStream(cfg, DefaultClasses(), StreamOptions{Requests: 2000, MeanGap: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(s.Classes))
	for i := range s.Nets {
		if i > 0 && s.Arrivals[i] < s.Arrivals[i-1] {
			t.Fatalf("arrivals decrease at %d", i)
		}
		if s.Deadlines[i] <= s.Arrivals[i] {
			t.Fatalf("request %d: deadline %d not after arrival %d", i, s.Deadlines[i], s.Arrivals[i])
		}
		counts[s.ClassOf[i]]++
	}
	// cnn:rnn weights are 3:1; allow generous sampling noise.
	frac := float64(counts[0]) / float64(len(s.Nets))
	if frac < 0.65 || frac > 0.85 {
		t.Errorf("cnn fraction %.2f, want ~0.75", frac)
	}
}

// TestBurstyKeepsMeanRate: the bursty process must offer the same mean
// load as Poisson at the same MeanGap, just less evenly.
func TestBurstyKeepsMeanRate(t *testing.T) {
	cfg := testConfig(t)
	base := StreamOptions{Requests: 5000, MeanGap: 10_000, Seed: 9}
	pois, err := NewStream(cfg, DefaultClasses(), base)
	if err != nil {
		t.Fatal(err)
	}
	burst := base
	burst.Process = Bursty
	b, err := NewStream(cfg, DefaultClasses(), burst)
	if err != nil {
		t.Fatal(err)
	}
	pSpan := float64(pois.Arrivals[len(pois.Arrivals)-1])
	bSpan := float64(b.Arrivals[len(b.Arrivals)-1])
	if ratio := bSpan / pSpan; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("bursty span is %.2fx the Poisson span, want ~1x", ratio)
	}
	// Bursts mean many back-to-back arrivals (zero gaps).
	zero := 0
	for i := 1; i < len(b.Arrivals); i++ {
		if b.Arrivals[i] == b.Arrivals[i-1] {
			zero++
		}
	}
	if zero < len(b.Arrivals)/2 {
		t.Errorf("only %d/%d zero gaps — arrivals are not bursty", zero, len(b.Arrivals))
	}
}

// TestServeReportConsistency: a served report's counters must agree
// with each other and with the stream, with invariants checked.
func TestServeReportConsistency(t *testing.T) {
	cfg := testConfig(t)
	s, err := NewStream(cfg, DefaultClasses(), StreamOptions{Requests: 64, MeanGap: 30_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Serve(cfg, s, sched.NewFIFO(), sim.Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 64 || rep.Latency.Count() != 64 {
		t.Fatalf("requests %d, recorded %d, want 64", rep.Requests, rep.Latency.Count())
	}
	if rep.MissRate < 0 || rep.MissRate > 1 {
		t.Errorf("miss rate %v out of range", rep.MissRate)
	}
	var reqs, misses int
	for _, c := range rep.PerClass {
		reqs += c.Requests
		misses += c.Misses
	}
	if reqs != rep.Requests || misses != rep.Misses {
		t.Errorf("per-class sums (%d req, %d miss) disagree with totals (%d, %d)",
			reqs, misses, rep.Requests, rep.Misses)
	}
	if rep.P50 > rep.P99 || rep.P99 > rep.P999 {
		t.Errorf("quantiles not monotone: p50 %d p99 %d p99.9 %d", rep.P50, rep.P99, rep.P999)
	}
	if rep.Makespan <= 0 || rep.Throughput <= 0 {
		t.Errorf("degenerate makespan %d / throughput %v", rep.Makespan, rep.Throughput)
	}
}

// TestSubStream: slicing a stream by index preserves per-request data,
// arrival order and class metadata, and partitions reassemble the
// parent exactly.
func TestSubStream(t *testing.T) {
	cfg := testConfig(t)
	s, err := NewStream(cfg, DefaultClasses(), StreamOptions{Requests: 31, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ClassService) != len(s.Classes) {
		t.Fatalf("ClassService has %d entries for %d classes", len(s.ClassService), len(s.Classes))
	}
	var even, odd []int
	for i := range s.Nets {
		if i%2 == 0 {
			even = append(even, i)
		} else {
			odd = append(odd, i)
		}
	}
	se, err := s.SubStream("even", even)
	if err != nil {
		t.Fatal(err)
	}
	so, err := s.SubStream("odd", odd)
	if err != nil {
		t.Fatal(err)
	}
	if len(se.Nets)+len(so.Nets) != len(s.Nets) {
		t.Fatalf("partition sizes %d+%d != %d", len(se.Nets), len(so.Nets), len(s.Nets))
	}
	for k, gi := range even {
		if se.Nets[k] != s.Nets[gi] || se.Arrivals[k] != s.Arrivals[gi] ||
			se.Deadlines[k] != s.Deadlines[gi] || se.ClassOf[k] != s.ClassOf[gi] {
			t.Fatalf("sub request %d does not mirror parent request %d", k, gi)
		}
		if k > 0 && se.Arrivals[k] < se.Arrivals[k-1] {
			t.Fatalf("sub arrivals not monotonic at %d", k)
		}
	}
	if se.MeanGap != s.MeanGap || se.MeanService != s.MeanService {
		t.Error("sub-stream did not inherit gap/service metadata")
	}
	// A sub-stream must be servable as-is.
	if _, err := Serve(cfg, so, sched.NewFIFO(), sim.Options{CheckInvariants: true}); err != nil {
		t.Fatalf("serving sub-stream: %v", err)
	}
}

// TestSubStreamRejectsOrphanedDecode: a sub-stream that keeps a
// decode entry but drops the entry it is chained after is not
// request-closed, so SubStream reports an error instead of panicking.
func TestSubStreamRejectsOrphanedDecode(t *testing.T) {
	cfg := testConfig(t)
	s, err := NewStream(cfg, TransformerClasses(), StreamOptions{Requests: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	orphan := -1
	for i, p := range s.ChainAfter {
		if p >= 0 {
			orphan = i
			break
		}
	}
	if orphan < 0 {
		t.Fatal("test premise broken: stream has no decode entry")
	}
	var keep []int
	for i := range s.Nets {
		if i != s.ChainAfter[orphan] {
			keep = append(keep, i)
		}
	}
	sub, err := s.SubStream("orphan", keep)
	if err == nil {
		t.Fatalf("SubStream kept decode entry %d without its predecessor %d and returned no error", orphan, s.ChainAfter[orphan])
	}
	if sub != nil {
		t.Error("SubStream returned a stream alongside its error")
	}
}

// TestReportFullyShedClassZeroRow is the regression test for the
// empty-class guard: a class whose requests were all shed by admission
// control must get a zero-valued per-class row (no NaN miss rate from
// a zero served count), and shed requests must stay out of the latency
// distribution while conservation (served + shed == offered) holds.
func TestReportFullyShedClassZeroRow(t *testing.T) {
	cfg := testConfig(t)
	s, err := NewStream(cfg, DefaultClasses(), StreamOptions{Requests: 64, MeanGap: 30_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, s.Nets, sched.NewFIFO(), sim.Options{Arrivals: s.Arrivals, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	shed := make([]bool, len(s.Nets))
	for i, ci := range s.ClassOf {
		if s.Classes[ci] == "rnn" {
			shed[i] = true
		}
	}
	rep := BuildReportShed(s, res, shed)
	var sawRNN bool
	for _, c := range rep.PerClass {
		if math.IsNaN(c.MissRate) {
			t.Errorf("class %s: miss rate is NaN", c.Class)
		}
		if c.Class != "rnn" {
			continue
		}
		sawRNN = true
		if c.Requests == 0 || c.Shed != c.Requests {
			t.Errorf("rnn row: %d/%d shed, want a fully shed non-empty class", c.Shed, c.Requests)
		}
		if c.Misses != 0 || c.MissRate != 0 || c.P99 != 0 {
			t.Errorf("fully shed class row not zero-valued: %+v", c)
		}
	}
	if !sawRNN {
		t.Fatal("no rnn row in the report")
	}
	if got := rep.Shed + int(rep.Latency.Count()); got != rep.Requests {
		t.Errorf("served %d + shed %d != offered %d", rep.Latency.Count(), rep.Shed, rep.Requests)
	}
	// A nil shed slice is exactly the plain report.
	if !reflect.DeepEqual(BuildReportShed(s, res, nil), BuildReport(s, res)) {
		t.Error("BuildReportShed(nil) differs from BuildReport")
	}
}

// TestGapsMatchStreamService pins Gaps to the stream's own service
// estimate: each gap is the MeanService of a stream over the same
// classes divided by the load, clamped to one cycle, so a stream drawn
// at that gap offers the requested load.
func TestGapsMatchStreamService(t *testing.T) {
	cfg := testConfig(t)
	for _, classes := range [][]Class{DefaultClasses(), TransformerClasses()} {
		s, err := NewStream(cfg, classes, StreamOptions{Requests: 1})
		if err != nil {
			t.Fatal(err)
		}
		loads := []float64{0.2, 1.1, 2.5 * 4, 1e30}
		gaps, err := Gaps(cfg, classes, loads...)
		if err != nil {
			t.Fatal(err)
		}
		for i, load := range loads {
			want := arch.Cycles(s.MeanService / load)
			if want < 1 {
				want = 1
			}
			if gaps[i] != want {
				t.Errorf("load %v: gap %d, want %d", load, gaps[i], want)
			}
		}
	}
	if _, err := Gaps(cfg, nil, 1); err == nil {
		t.Error("Gaps accepted an empty class list")
	}
	for _, bad := range []float64{0, -1, math.NaN()} {
		if _, err := Gaps(cfg, DefaultClasses(), 1, bad); err == nil {
			t.Errorf("Gaps accepted offered load %v", bad)
		}
	}
}
