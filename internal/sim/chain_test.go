package sim

import (
	"reflect"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
)

// TestChainAfterSequencesPhases pins the multi-phase contract: a
// chained instance is invisible until its predecessor finishes, then
// arrives exactly at the predecessor's finish cycle.
func TestChainAfterSequencesPhases(t *testing.T) {
	cfg := testConfig()
	mk := func(name string) *compiler.CompiledNetwork {
		return chainNet(name, cfg, layerSpec{mb: 10, cb: 20, iters: 1, blocks: 1})
	}
	nets := []*compiler.CompiledNetwork{mk("prefill"), mk("dec1"), mk("dec2")}
	res, err := Run(cfg, nets, serial{}, Options{
		ChainAfter:      []int{-1, 0, 1},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each phase runs serially: MB 10 then CB 20 per phase.
	wantArrive := []arch.Cycles{0, 30, 60}
	wantFinish := []arch.Cycles{30, 60, 90}
	for i := range nets {
		if res.NetArrive[i] != wantArrive[i] || res.NetFinish[i] != wantFinish[i] {
			t.Errorf("net %d: arrive/finish = %d/%d, want %d/%d",
				i, res.NetArrive[i], res.NetFinish[i], wantArrive[i], wantFinish[i])
		}
	}
	if res.Makespan != 90 {
		t.Errorf("makespan = %d, want 90", res.Makespan)
	}
}

// TestChainAfterRespectsStaticArrival covers the rare case of a
// chained phase whose static arrival lies beyond the predecessor's
// finish: the effective arrival is the later of the two.
func TestChainAfterRespectsStaticArrival(t *testing.T) {
	cfg := testConfig()
	mk := func(name string) *compiler.CompiledNetwork {
		return chainNet(name, cfg, layerSpec{mb: 10, cb: 20, iters: 1, blocks: 1})
	}
	nets := []*compiler.CompiledNetwork{mk("prefill"), mk("decode")}
	res, err := Run(cfg, nets, serial{}, Options{
		Arrivals:        []arch.Cycles{0, 100},
		ChainAfter:      []int{-1, 0},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetArrive[1] != 100 || res.NetFinish[1] != 130 {
		t.Errorf("deferred phase arrive/finish = %d/%d, want 100/130",
			res.NetArrive[1], res.NetFinish[1])
	}
}

// TestChainAfterValidation rejects self and forward references.
func TestChainAfterValidation(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 20, iters: 1, blocks: 1})
	nets := []*compiler.CompiledNetwork{cn, cn}
	for _, chain := range [][]int{{-1, 1}, {0, -1}, {-1, -2}} {
		if _, err := Run(cfg, nets, serial{}, Options{ChainAfter: chain}); err == nil {
			t.Errorf("ChainAfter %v: want error, got nil", chain)
		}
	}
}

// TestChainAfterAllUnchainedIsIdentity pins the differential anchor:
// an explicit all--1 chain slice is bit-identical to no chain slice.
func TestChainAfterAllUnchainedIsIdentity(t *testing.T) {
	cfg := testConfig()
	mk := func(name string) *compiler.CompiledNetwork {
		return chainNet(name, cfg,
			layerSpec{mb: 10, cb: 6, iters: 3, blocks: 1},
			layerSpec{mb: 4, cb: 12, iters: 2, blocks: 2})
	}
	nets := []*compiler.CompiledNetwork{mk("a"), mk("b"), mk("c")}
	arrivals := []arch.Cycles{0, 15, 40}
	base, err := Run(cfg, nets, serial{}, Options{Arrivals: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	chained, err := Run(cfg, nets, serial{}, Options{Arrivals: arrivals, ChainAfter: []int{-1, -1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, chained) {
		t.Errorf("all--1 ChainAfter diverged:\nbase    %+v\nchained %+v", base, chained)
	}
}
