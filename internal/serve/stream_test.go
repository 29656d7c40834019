package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
)

// refStream is the stream generator as it was before exact sizing:
// every per-entry slice grows one append at a time as the requests are
// drawn. It is the reference the sized generator must reproduce field
// for field.
func (m *compiledMix) refStream(opts StreamOptions) *Stream {
	if opts.Requests <= 0 {
		opts.Requests = 1024
	}
	if opts.MeanGap <= 0 {
		opts.MeanGap = 20000
	}
	if opts.BurstLen <= 0 {
		opts.BurstLen = 8
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	s := &Stream{
		Name:        fmt.Sprintf("%s-load%.2f", opts.Process, m.meanService/float64(opts.MeanGap)),
		MeanService: m.meanService,
		MeanGap:     opts.MeanGap,
		Requests:    opts.Requests,
	}
	for _, cc := range m.classes {
		s.Classes = append(s.Classes, cc.name)
		s.ClassService = append(s.ClassService, cc.service)
		s.ClassDecodeService = append(s.ClassDecodeService, cc.decodeSvc)
		s.ClassBatch = append(s.ClassBatch, cc.batch)
		s.ClassPriority = append(s.ClassPriority, cc.prio)
	}

	var t arch.Cycles
	for i := 0; i < opts.Requests; i++ {
		pick := rng.Float64() * m.totalW
		ci := 0
		for ci < len(m.weights)-1 && pick >= m.weights[ci] {
			pick -= m.weights[ci]
			ci++
		}
		cc := m.classes[ci]
		head := len(s.Nets)
		headDeadline := t + arch.Cycles(cc.slack*float64(cc.service))
		s.Nets = append(s.Nets, cc.net)
		s.Arrivals = append(s.Arrivals, t)
		s.Deadlines = append(s.Deadlines, headDeadline)
		s.ClassOf = append(s.ClassOf, ci)
		if m.phased {
			phase := PhaseSingle
			if cc.decode != nil {
				phase = PhasePrefill
			}
			s.ReqOf = append(s.ReqOf, i)
			s.PhaseOf = append(s.PhaseOf, phase)
			s.ChainAfter = append(s.ChainAfter, -1)
			for k := 1; k <= cc.decodeIters; k++ {
				s.Nets = append(s.Nets, cc.decode)
				s.Arrivals = append(s.Arrivals, t)
				s.Deadlines = append(s.Deadlines, headDeadline+arch.Cycles(k)*cc.tokenBudget)
				s.ClassOf = append(s.ClassOf, ci)
				s.ReqOf = append(s.ReqOf, i)
				s.PhaseOf = append(s.PhaseOf, PhaseDecode)
				s.ChainAfter = append(s.ChainAfter, head+k-1)
			}
		}

		switch opts.Process {
		case Bursty:
			if rng.Float64() < 1/float64(opts.BurstLen) {
				t += arch.Cycles(rng.ExpFloat64() * float64(opts.MeanGap) * float64(opts.BurstLen))
			}
		default:
			t += arch.Cycles(rng.ExpFloat64() * float64(opts.MeanGap))
		}
	}
	return s
}

// refSubStream is SubStream as it was before the predecessor rule: a
// map from parent to local index, filled as the indices are walked.
func refSubStream(s *Stream, name string, indices []int) (*Stream, error) {
	sub := &Stream{
		Name:               name,
		Classes:            s.Classes,
		ClassService:       s.ClassService,
		ClassDecodeService: s.ClassDecodeService,
		ClassBatch:         s.ClassBatch,
		ClassPriority:      s.ClassPriority,
		MeanService:        s.MeanService,
		MeanGap:            s.MeanGap,
		Requests:           len(indices),
		Nets:               make([]*compiler.CompiledNetwork, len(indices)),
		Arrivals:           make([]arch.Cycles, len(indices)),
		Deadlines:          make([]arch.Cycles, len(indices)),
		ClassOf:            make([]int, len(indices)),
	}
	for i, gi := range indices {
		sub.Nets[i] = s.Nets[gi]
		sub.Arrivals[i] = s.Arrivals[gi]
		sub.Deadlines[i] = s.Deadlines[gi]
		sub.ClassOf[i] = s.ClassOf[gi]
	}
	if s.ChainAfter != nil {
		sub.ReqOf = make([]int, len(indices))
		sub.PhaseOf = make([]Phase, len(indices))
		sub.ChainAfter = make([]int, len(indices))
		sub.Requests = 0
		local := make(map[int]int, len(indices))
		for i, gi := range indices {
			local[gi] = i
			sub.ReqOf[i] = s.ReqOf[gi]
			sub.PhaseOf[i] = s.PhaseOf[gi]
			if p := s.ChainAfter[gi]; p >= 0 {
				lp, ok := local[p]
				if !ok {
					return nil, fmt.Errorf("serve: SubStream %q: entry %d chained after %d, which is not included", name, gi, p)
				}
				sub.ChainAfter[i] = lp
			} else {
				sub.ChainAfter[i] = -1
				sub.Requests++
			}
		}
	}
	return sub, nil
}

// twoBandClasses is the overload experiments' priority mix: CNN premium
// (priority 1, weight 1) over RNN batch (priority 0, weight 4).
func twoBandClasses() []Class {
	classes := DefaultClasses()
	classes[0].Priority, classes[0].Weight = 1, 1
	classes[1].Priority, classes[1].Weight = 0, 4
	return classes
}

// mixedDecodeClasses is a phased mix whose requests differ in length:
// chat requests of 8 and of 3 decode steps, prefill-only chat requests
// (a decode network with zero iterations) and single-phase CNN ones.
func mixedDecodeClasses() []Class {
	long, short, none := TransformerChatClass(8, 1), TransformerChatClass(3, 2), TransformerChatClass(0, 1)
	short.Name, none.Name = "chat-short", "chat-prefill-only"
	return []Class{long, short, none, DefaultClasses()[0]}
}

// checkExactCap fails the test for a per-entry slice whose capacity is
// not its length: a table that still grew by appends.
func checkExactCap(t *testing.T, s *Stream) {
	t.Helper()
	for name, lc := range map[string][2]int{
		"Nets":       {len(s.Nets), cap(s.Nets)},
		"Arrivals":   {len(s.Arrivals), cap(s.Arrivals)},
		"Deadlines":  {len(s.Deadlines), cap(s.Deadlines)},
		"ClassOf":    {len(s.ClassOf), cap(s.ClassOf)},
		"ReqOf":      {len(s.ReqOf), cap(s.ReqOf)},
		"PhaseOf":    {len(s.PhaseOf), cap(s.PhaseOf)},
		"ChainAfter": {len(s.ChainAfter), cap(s.ChainAfter)},
	} {
		if lc[0] != lc[1] {
			t.Errorf("%s: len %d, cap %d", name, lc[0], lc[1])
		}
	}
}

// TestNewStreamMatchesReference holds the sized generator to the
// append-grown reference: over single-phase, phased and priority
// mixes, both arrival processes, three seeds and three lengths, every
// Stream field is equal (each entry's Nets pointer the very same
// compiled network), and every per-entry slice is allocated at exactly
// its length.
func TestNewStreamMatchesReference(t *testing.T) {
	cfg := arch.PaperConfig()
	mixes := map[string][]Class{
		"default":      DefaultClasses(),
		"transformer":  TransformerClasses(),
		"two-band":     twoBandClasses(),
		"mixed-decode": mixedDecodeClasses(),
	}
	for name, classes := range mixes {
		m, err := compileClasses(cfg, classes)
		if err != nil {
			t.Fatal(err)
		}
		for _, proc := range []Process{Poisson, Bursty} {
			for _, seed := range []int64{7, 1009, 42} {
				for _, n := range []int{1, 2, 1000} {
					opts := StreamOptions{Requests: n, Process: proc, MeanGap: 3000, Seed: seed}
					got, want := m.stream(opts), m.refStream(opts)
					where := fmt.Sprintf("%s/%s/seed%d/n%d", name, proc, seed, n)
					if len(got.Nets) != len(want.Nets) {
						t.Fatalf("%s: %d entries, reference %d", where, len(got.Nets), len(want.Nets))
					}
					for i := range got.Nets {
						if got.Nets[i] != want.Nets[i] {
							t.Fatalf("%s: entry %d runs another network than the reference", where, i)
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: stream differs from the reference", where)
					}
					checkExactCap(t, got)
				}
			}
		}
	}
}

// requestClosedSubset draws a random subset of whole requests from a
// stream: each request is kept with probability keep, with all of its
// entries, in ascending entry order.
func requestClosedSubset(rng *rand.Rand, s *Stream, keep float64) []int {
	kept := make(map[int]bool)
	var idx []int
	for i := range s.Nets {
		req := i
		if s.ReqOf != nil {
			req = s.ReqOf[i]
		}
		k, seen := kept[req]
		if !seen {
			k = rng.Float64() < keep
			kept[req] = k
		}
		if k {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestSubStreamMatchesReference holds SubStream's predecessor rule
// (previous index, else a binary search) to the map-based reference:
// on random request-closed subsets of generated streams, and on
// hand-built chains whose predecessors are not adjacent, including one
// chained forward, which both must reject.
func TestSubStreamMatchesReference(t *testing.T) {
	cfg := arch.PaperConfig()
	rng := rand.New(rand.NewSource(11))
	for _, classes := range [][]Class{DefaultClasses(), TransformerClasses(), mixedDecodeClasses()} {
		s, err := NewStream(cfg, classes, StreamOptions{Requests: 300, MeanGap: 3000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			idx := requestClosedSubset(rng, s, rng.Float64())
			got, err := s.SubStream("sub", idx)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want, err := refSubStream(s, "sub", idx)
			if err != nil {
				t.Fatalf("trial %d: reference: %v", trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: SubStream differs from the reference on %d of %d entries", trial, len(idx), len(s.Nets))
			}
		}
	}

	// Two requests interleaved entry by entry, so each decode entry's
	// predecessor sits two indices back, and a third whose decode entry
	// 4 is chained forward, after its prefill entry 5.
	s, err := NewStream(cfg, TransformerClasses(), StreamOptions{Requests: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hand := &Stream{
		Name:        "hand",
		Nets:        make([]*compiler.CompiledNetwork, 6),
		Arrivals:    make([]arch.Cycles, 6),
		Deadlines:   []arch.Cycles{10, 20, 30, 40, 50, 60},
		ClassOf:     make([]int, 6),
		ReqOf:       []int{0, 1, 0, 1, 2, 2},
		PhaseOf:     []Phase{PhasePrefill, PhasePrefill, PhaseDecode, PhaseDecode, PhaseDecode, PhasePrefill},
		ChainAfter:  []int{-1, -1, 0, 1, 5, -1},
		Requests:    3,
		Classes:     s.Classes,
		MeanService: s.MeanService,
		MeanGap:     s.MeanGap,
	}
	for i := range hand.Nets {
		hand.Nets[i] = s.Nets[0]
	}
	for _, idx := range [][]int{{0, 1, 2, 3}, {0, 2}, {1, 3}, {0, 1, 3}, {0, 1, 2, 3, 5}, {5}, {2}, {1, 2}, {4, 5}, {0, 1, 2, 3, 4, 5}} {
		got, gerr := hand.SubStream("hand-sub", idx)
		want, werr := refSubStream(hand, "hand-sub", idx)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("indices %v: error %v, reference error %v", idx, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Errorf("indices %v: error %q, reference %q", idx, gerr, werr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("indices %v: SubStream %+v, reference %+v", idx, got, want)
		}
	}
}

// TestNewStreamAllocs: with every table allocated at its final length,
// NewStream's allocation count does not depend on the stream length.
// The collector is off while counting: a GC cycle, which only the
// longer stream's megabytes trigger, makes allocations of its own.
func TestNewStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	cfg := arch.PaperConfig()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, classes := range map[string][]Class{"default": DefaultClasses(), "transformer": TransformerClasses()} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := NewStream(cfg, classes, StreamOptions{Requests: n, MeanGap: 3000, Seed: 7}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(1000), allocs(8000); small != large {
			t.Errorf("%s: %v allocs at 1000 requests, %v at 8000", name, small, large)
		}
	}
}

// BenchmarkNewStream measures the stream layer on its own: compiling
// the classes and drawing the cluster8-transformer stream (4000
// TransformerClasses requests, 8 chips at per-chip load 1.2), the
// set-up every cluster serving run starts from.
func BenchmarkNewStream(b *testing.B) {
	cfg := arch.PaperConfig()
	classes := TransformerClasses()
	const chips = 8
	gaps, err := Gaps(cfg, classes, 1.2*chips)
	if err != nil {
		b.Fatal(err)
	}
	opts := StreamOptions{Requests: 4000, MeanGap: gaps[0], Seed: 7}
	var entries int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStream(cfg, classes, opts)
		if err != nil {
			b.Fatal(err)
		}
		entries = len(s.Nets)
	}
	b.ReportMetric(float64(entries), "entries/op")
}
