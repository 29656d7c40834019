package serve

import (
	"math"
	"strings"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/core"
	"aimt/internal/obs"
	"aimt/internal/sim"
)

// phaseStream builds a small transformer stream for phase tests.
func phaseStream(t *testing.T, decode, requests int) *Stream {
	t.Helper()
	cfg := arch.PaperConfig()
	classes := []Class{TransformerChatClass(decode, 1)}
	s, err := NewStream(cfg, classes, StreamOptions{Requests: requests, MeanGap: 200_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamPhases pins the multi-phase stream shape: each request is
// one prefill entry plus Decode chained decode entries sharing the
// arrival, with a strictly increasing per-token deadline ladder.
func TestStreamPhases(t *testing.T) {
	const decode, requests = 4, 16
	s := phaseStream(t, decode, requests)
	if s.Requests != requests {
		t.Fatalf("Requests = %d, want %d", s.Requests, requests)
	}
	if got, want := len(s.Nets), requests*(1+decode); got != want {
		t.Fatalf("entries = %d, want %d", got, want)
	}
	for i := range s.Nets {
		switch {
		case i%(1+decode) == 0: // request head
			if s.PhaseOf[i] != PhasePrefill || s.ChainAfter[i] != -1 {
				t.Errorf("entry %d: phase/chain = %v/%d, want prefill/-1", i, s.PhaseOf[i], s.ChainAfter[i])
			}
		default:
			if s.PhaseOf[i] != PhaseDecode || s.ChainAfter[i] != i-1 {
				t.Errorf("entry %d: phase/chain = %v/%d, want decode/%d", i, s.PhaseOf[i], s.ChainAfter[i], i-1)
			}
			if s.Arrivals[i] != s.Arrivals[i-1] {
				t.Errorf("entry %d: arrival %d differs from head %d", i, s.Arrivals[i], s.Arrivals[i-1])
			}
			if s.Deadlines[i] <= s.Deadlines[i-1] {
				t.Errorf("entry %d: deadline ladder not increasing (%d <= %d)", i, s.Deadlines[i], s.Deadlines[i-1])
			}
			if s.ReqOf[i] != s.ReqOf[i-1] {
				t.Errorf("entry %d: request id %d differs from predecessor %d", i, s.ReqOf[i], s.ReqOf[i-1])
			}
		}
	}
	if s.ClassDecodeService[0] <= 0 {
		t.Errorf("ClassDecodeService = %v, want positive", s.ClassDecodeService)
	}
	if s.EntryService(0) != s.ClassService[0] || s.EntryService(1) != s.ClassDecodeService[0] {
		t.Errorf("EntryService head/decode = %d/%d, want %d/%d",
			s.EntryService(0), s.EntryService(1), s.ClassService[0], s.ClassDecodeService[0])
	}
}

// TestServePhaseReport runs a transformer stream end to end and checks
// the phase rows and token metric of the report.
func TestServePhaseReport(t *testing.T) {
	cfg := arch.PaperConfig()
	const decode, requests = 4, 16
	s := phaseStream(t, decode, requests)
	reg := obs.NewRegistry()
	rep, err := Serve(cfg, s, core.New(cfg, core.All()), sim.Options{CheckInvariants: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerPhase) != 2 {
		t.Fatalf("PerPhase rows = %d, want 2", len(rep.PerPhase))
	}
	pre, dec := rep.PerPhase[0], rep.PerPhase[1]
	if pre.Phase != PhasePrefill || pre.Entries != requests {
		t.Errorf("prefill row = %+v, want %d entries", pre, requests)
	}
	if dec.Phase != PhaseDecode || dec.Entries != requests*decode {
		t.Errorf("decode row = %+v, want %d entries", dec, requests*decode)
	}
	if pre.P99 <= 0 || dec.P99 <= 0 {
		t.Errorf("phase p99s = %d/%d, want positive", pre.P99, dec.P99)
	}
	if rep.Tokens != requests*decode {
		t.Errorf("Tokens = %d, want %d", rep.Tokens, requests*decode)
	}
	if rep.TokensPerMcycle <= 0 || math.IsNaN(rep.TokensPerMcycle) {
		t.Errorf("TokensPerMcycle = %v, want positive", rep.TokensPerMcycle)
	}
	var dump strings.Builder
	if err := reg.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aimt_serve_tokens_per_mcycle", `phase="decode"`, `phase="prefill"`} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestReportEmptyPhaseRegression covers the empty-phase edge: a
// transformer class with zero decode iterations still reports a decode
// row, zero-valued, with no NaN miss rate and zero tokens.
func TestReportEmptyPhaseRegression(t *testing.T) {
	cfg := arch.PaperConfig()
	s := phaseStream(t, 0, 8)
	if len(s.Nets) != 8 {
		t.Fatalf("entries = %d, want 8 (prefill only)", len(s.Nets))
	}
	rep, err := Serve(cfg, s, core.New(cfg, core.All()), sim.Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerPhase) != 2 {
		t.Fatalf("PerPhase rows = %d, want 2 even with no decode entries", len(rep.PerPhase))
	}
	dec := rep.PerPhase[1]
	if dec.Phase != PhaseDecode {
		t.Fatalf("second row phase = %v, want decode", dec.Phase)
	}
	if dec.Entries != 0 || dec.Misses != 0 || dec.P50 != 0 || dec.P99 != 0 {
		t.Errorf("empty decode row not zero-valued: %+v", dec)
	}
	if math.IsNaN(dec.MissRate) || dec.MissRate != 0 {
		t.Errorf("empty decode row miss rate = %v, want 0", dec.MissRate)
	}
	if rep.Tokens != 0 || rep.TokensPerMcycle != 0 {
		t.Errorf("tokens = %d (%v/Mcyc), want 0", rep.Tokens, rep.TokensPerMcycle)
	}
}
