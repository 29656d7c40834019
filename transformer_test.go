package aimt

import (
	"fmt"
	"reflect"
	"testing"

	"aimt/internal/cluster"
	"aimt/internal/serve"
)

// Transformer serving battery: multi-phase conservation across every
// scheduler x routing policy, the zero-decode differential against the
// single-phase path, and the decode-batching curve shape.

// transformerClusterStream builds a mixed transformer/CNN stream whose
// offered load is `load` single-chip capacities.
func transformerClusterStream(t *testing.T, requests int, load float64) *serve.Stream {
	t.Helper()
	cfg := PaperConfig()
	classes := TransformerServingClasses()
	gaps, err := ServeGaps(cfg, classes, load)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewStream(cfg, classes, ServeStreamOptions{Requests: requests, MeanGap: gaps[0], Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkPhaseConservation asserts, for one cluster run, that every
// admitted request completed exactly one prefill plus its class's
// decode iteration count, that all of a request's entries share one
// chip (or are shed together), that no decode phase starts before its
// predecessor finishes, and that each chip executed exactly the block
// multiset of the networks routed to it.
func checkPhaseConservation(t *testing.T, label string, s *serve.Stream, classes []ServeClass, res *cluster.Result) {
	t.Helper()
	shed := func(i int) bool { return res.Shed != nil && res.Shed[i] }

	// Per-request phase accounting and chip affinity.
	type reqAcct struct {
		prefill, decode int
		chip            int
		shed            bool
		seen            bool
	}
	acct := map[int]*reqAcct{}
	for i := range s.Nets {
		a := acct[s.ReqOf[i]]
		if a == nil {
			a = &reqAcct{chip: res.Assignment[i], shed: shed(i)}
			acct[s.ReqOf[i]] = a
		}
		if shed(i) != a.shed || (!shed(i) && res.Assignment[i] != a.chip) {
			t.Errorf("%s: entry %d (request %d) split from its request: chip %d shed %v, head chip %d shed %v",
				label, i, s.ReqOf[i], res.Assignment[i], shed(i), a.chip, a.shed)
		}
		switch s.PhaseOf[i] {
		case ServePrefillPhase, ServeSinglePhase:
			a.prefill++
		case ServeDecodePhase:
			a.decode++
		}
	}
	for req, a := range acct {
		if a.shed {
			continue
		}
		head := -1
		for i := range s.Nets {
			if s.ReqOf[i] == req {
				head = i
				break
			}
		}
		wantDecode := 0
		if c := classes[s.ClassOf[head]]; c.DecodeNet != nil {
			wantDecode = c.Decode
		}
		if a.prefill != 1 || a.decode != wantDecode {
			t.Errorf("%s: request %d completed %d prefill + %d decode phases, want 1 + %d",
				label, req, a.prefill, a.decode, wantDecode)
		}
	}

	// Per-chip block-multiset and decode-ordering checks against the
	// chip's local simulation result. Local indices on a chip are its
	// global entries in ascending order — the sub-stream order.
	for c := 0; c < res.Chips; c++ {
		local := map[int]int{}
		var blocks int
		for i := range s.Nets {
			if shed(i) || res.Assignment[i] != c {
				continue
			}
			local[i] = len(local)
			blocks += s.Nets[i].Stats().SubLayers
		}
		cr := res.ChipResults[c]
		if cr == nil {
			if len(local) != 0 {
				t.Errorf("%s: chip %d has %d entries but no result", label, c, len(local))
			}
			continue
		}
		if cr.MBCount != blocks || cr.CBCount != blocks {
			t.Errorf("%s: chip %d executed %d MBs / %d CBs, want %d each",
				label, c, cr.MBCount, cr.CBCount, blocks)
		}
		for i, li := range local {
			if s.PhaseOf[i] != ServeDecodePhase {
				continue
			}
			p := s.ChainAfter[i]
			lp, ok := local[p]
			if !ok {
				t.Errorf("%s: chip %d: decode entry %d routed without its predecessor %d", label, c, i, p)
				continue
			}
			if cr.NetArrive[li] < cr.NetFinish[lp] {
				t.Errorf("%s: chip %d: decode entry %d started at %d before predecessor %d finished at %d",
					label, c, i, cr.NetArrive[li], p, cr.NetFinish[lp])
			}
		}
	}
}

// TestTransformerPhaseConservation runs a transformer/CNN stream
// through every registered scheduler x routing policy combination, with
// and without the overload control plane, asserting the multi-phase
// conservation properties under the machine-model invariant checker.
func TestTransformerPhaseConservation(t *testing.T) {
	cfg := PaperConfig()
	const chips = 2
	classes := TransformerServingClasses()
	s := transformerClusterStream(t, 40, 2.5) // 1.25x the 2-chip cluster
	for _, spec := range registrySpecs() {
		for _, pol := range ClusterPolicies() {
			for _, ctl := range []ClusterControl{
				{},
				{Admission: true, Autoscale: true},
			} {
				label := fmt.Sprintf("%s/%s/admission=%v", spec.Name, pol.Name, ctl.Admission)
				res, err := cluster.Serve(cfg, s, spec, pol.New(), ClusterOptions{
					Chips:           chips,
					CheckInvariants: true,
					Control:         ctl,
				})
				if err != nil {
					t.Errorf("%s: %v", label, err)
					continue
				}
				checkPhaseConservation(t, label, s, classes, res)
			}
		}
	}
}

// TestZeroDecodeDifferential pins the degenerate transformer: a class
// with a decode network but zero decode iterations must produce a
// stream and simulation results bit-identical to the same class served
// through the untouched single-phase path.
func TestZeroDecodeDifferential(t *testing.T) {
	cfg := PaperConfig()
	phased := serve.TransformerChatClass(0, 1)
	plain := serve.TransformerChatClass(0, 1)
	plain.DecodeNet = nil

	opts := ServeStreamOptions{Requests: 24, MeanGap: 150_000, Seed: 9}
	sp, err := serve.NewStream(cfg, []ServeClass{phased}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := serve.NewStream(cfg, []ServeClass{plain}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ss.PhaseOf != nil || ss.ChainAfter != nil {
		t.Fatalf("single-phase stream grew phase metadata: %v / %v", ss.PhaseOf, ss.ChainAfter)
	}
	if len(sp.Nets) != len(ss.Nets) {
		t.Fatalf("entry counts differ: %d vs %d", len(sp.Nets), len(ss.Nets))
	}
	if !reflect.DeepEqual(sp.Arrivals, ss.Arrivals) || !reflect.DeepEqual(sp.Deadlines, ss.Deadlines) {
		t.Fatalf("arrivals/deadlines differ between phased and single-phase streams")
	}
	for _, spec := range registrySpecs() {
		rp, err := Run(cfg, sp.Nets, spec.New(cfg, sp), RunOptions{
			Arrivals: sp.Arrivals, ChainAfter: sp.ChainAfter, CheckInvariants: true,
		})
		if err != nil {
			t.Fatalf("%s phased: %v", spec.Name, err)
		}
		rs, err := Run(cfg, ss.Nets, spec.New(cfg, ss), RunOptions{
			Arrivals: ss.Arrivals, CheckInvariants: true,
		})
		if err != nil {
			t.Fatalf("%s single: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(rp, rs) {
			t.Errorf("%s: zero-decode run diverged from single-phase run:\nphased: %+v\nsingle: %+v", spec.Name, rp, rs)
		}
	}

	// The phased report still carries phase rows (all-prefill), but its
	// headline statistics must match the single-phase report exactly.
	pr, err := serve.Serve(cfg, sp, NewAIMT(cfg, AllMechanisms()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := serve.Serve(cfg, ss, NewAIMT(cfg, AllMechanisms()), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.PerPhase != nil {
		t.Errorf("single-phase report grew phase rows: %+v", sr.PerPhase)
	}
	if pr.P50 != sr.P50 || pr.P99 != sr.P99 || pr.Makespan != sr.Makespan ||
		pr.Misses != sr.Misses || pr.Requests != sr.Requests {
		t.Errorf("zero-decode report diverged: phased %+v vs single %+v", pr, sr)
	}
	if pr.Tokens != 0 {
		t.Errorf("zero-decode stream produced %d tokens, want 0", pr.Tokens)
	}
}

// TestDecodeBatchingCurve checks the decodebatch experiment's shape:
// batching decode steps amortizes weight and KV-cache traffic, so
// tokens per megacycle must strictly improve from batch 1 to batch 16.
// The exact table is pinned by the decodebatch golden.
func TestDecodeBatchingCurve(t *testing.T) {
	pts, err := decodeBatchCurveData(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(decodeBatchSizes) {
		t.Fatalf("points = %d, want %d", len(pts), len(decodeBatchSizes))
	}
	for i, p := range pts {
		if p.Batch != decodeBatchSizes[i] {
			t.Errorf("point %d batch = %d, want %d", i, p.Batch, decodeBatchSizes[i])
		}
		if len(p.Rep.PerPhase) != 2 {
			t.Fatalf("batch %d: %d phase rows, want 2", p.Batch, len(p.Rep.PerPhase))
		}
		if p.Rep.TokensPerMcycle <= 0 {
			t.Errorf("batch %d: tokens/Mcycle = %v, want positive", p.Batch, p.Rep.TokensPerMcycle)
		}
		if dec := p.Rep.PerPhase[1]; dec.Entries <= 0 || dec.P99 <= 0 {
			t.Errorf("batch %d: empty decode row %+v", p.Batch, dec)
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.Rep.TokensPerMcycle <= first.Rep.TokensPerMcycle {
		t.Errorf("decode batching did not pay: batch %d at %.3f tok/Mcyc <= batch %d at %.3f",
			last.Batch, last.Rep.TokensPerMcycle, first.Batch, first.Rep.TokensPerMcycle)
	}
}
