package aimt

import (
	"errors"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/nn"
	"aimt/internal/serve"
	"aimt/internal/sim"
)

// Edge-case sweep: every scheduling policy is driven through the
// degenerate workload shapes a serving frontend can hand the
// simulator, with the machine-model invariant checker on. Policies
// must either finish cleanly or return an error — never panic, never
// violate an invariant, never strand a network.

type edgeCase struct {
	name string
	// sram is the weight-SRAM capacity in blocks.
	sram int
	// build returns the mix and per-instance arrivals (nil = cycle 0).
	build func(cfg Config) ([]*Compiled, []Cycles)
	// wantErr marks cases sim.Run must reject.
	wantErr bool
}

func edgeCases() []edgeCase {
	return []edgeCase{
		{
			name: "empty-mix",
			sram: 8,
			build: func(cfg Config) ([]*Compiled, []Cycles) {
				return nil, nil
			},
			wantErr: true,
		},
		{
			name: "single-network",
			sram: 8,
			build: func(cfg Config) ([]*Compiled, []Cycles) {
				return []*Compiled{block("solo", cfg, 6, 9, 4, 2)}, nil
			},
		},
		{
			name: "all-arrivals-identical",
			sram: 8,
			build: func(cfg Config) ([]*Compiled, []Cycles) {
				nets := []*Compiled{
					block("a", cfg, 4, 10, 3, 1),
					block("b", cfg, 10, 4, 3, 2),
					block("c", cfg, 6, 6, 3, 1),
				}
				return nets, []Cycles{777, 777, 777}
			},
		},
		{
			// One SRAM block: prefetch depth is forced to zero, every
			// policy (including the double-buffering baselines) must
			// degrade to fetch-compute-fetch serialization.
			name: "depth-0-prefetch",
			sram: 1,
			build: func(cfg Config) ([]*Compiled, []Cycles) {
				nets := []*Compiled{
					block("a", cfg, 5, 7, 4, 1),
					block("b", cfg, 7, 5, 4, 1),
				}
				return nets, nil
			},
		},
		{
			// The last network arrives long after the others finished:
			// the engine must idle forward to the arrival and the
			// policies must not starve it.
			name: "arrival-after-all-finish",
			sram: 8,
			build: func(cfg Config) ([]*Compiled, []Cycles) {
				nets := []*Compiled{
					block("early1", cfg, 4, 6, 2, 1),
					block("early2", cfg, 6, 4, 2, 1),
					block("late", cfg, 5, 5, 2, 1),
				}
				return nets, []Cycles{0, 0, 1_000_000}
			},
		},
	}
}

func TestEdgeCasesAllSchedulers(t *testing.T) {
	for _, ec := range edgeCases() {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			cfg := scenarioConfig(ec.sram)
			nets, arrivals := ec.build(cfg)
			for _, p := range allPolicies(cfg, len(nets)) {
				res, err := Run(cfg, nets, p.mk(), RunOptions{
					CheckInvariants: true,
					Arrivals:        arrivals,
				})
				if ec.wantErr {
					if err == nil {
						t.Errorf("%s: no error on %s", p.name, ec.name)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", p.name, err)
					continue
				}
				for i, fin := range res.NetFinish {
					arr := Cycles(0)
					if i < len(arrivals) {
						arr = arrivals[i]
					}
					if fin <= arr {
						t.Errorf("%s: net %d finished at %d, not after its arrival %d",
							p.name, i, fin, arr)
					}
				}
				if ideal := IdealBound(nets); res.Makespan < ideal {
					t.Errorf("%s: makespan %d below ideal bound %d", p.name, res.Makespan, ideal)
				}
			}
		})
	}
}

// TestEdgeCaseLateArrivalIdles pins the arrival-after-all-finish
// timing: the makespan must extend past the straggler's arrival and
// the early networks must not be delayed by its existence.
func TestEdgeCaseLateArrivalIdles(t *testing.T) {
	cfg := scenarioConfig(8)
	early := []*Compiled{
		block("early1", cfg, 4, 6, 2, 1),
		block("early2", cfg, 6, 4, 2, 1),
	}
	withLate := append(append([]*Compiled(nil), early...), block("late", cfg, 5, 5, 2, 1))

	base, err := Run(cfg, early, NewFIFO(), RunOptions{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, withLate, NewFIFO(), RunOptions{
		CheckInvariants: true,
		Arrivals:        []Cycles{0, 0, 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 1_000_000 {
		t.Errorf("makespan %d does not extend past the straggler's arrival", res.Makespan)
	}
	for i := range early {
		if res.NetFinish[i] != base.NetFinish[i] {
			t.Errorf("early net %d finish moved from %d to %d because of an unarrived network",
				i, base.NetFinish[i], res.NetFinish[i])
		}
	}
}

// TestBrokenConfigIsAnError hands the compiler, the stream generator
// and the simulator configurations that describe no machine: cycle
// arithmetic that would divide by zero, an array with no pipeline
// fill, a weight SRAM below one block. Each must come back as the arch
// error naming the field, never as a panic or a run of another
// machine. The simulator gets networks compiled for a sound
// configuration, so its own check is what answers.
func TestBrokenConfigIsAnError(t *testing.T) {
	good := PaperConfig()
	cn, err := compiler.Compile(nn.ResNet34(), good, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		breakCfg func(*arch.Config)
		want     error
	}{
		{"zero config", func(c *arch.Config) { *c = arch.Config{} }, arch.ErrBadPEDim},
		{"zero PEDim", func(c *arch.Config) { c.PEDim = 0 }, arch.ErrBadPEDim},
		{"negative NumArrays", func(c *arch.Config) { c.NumArrays = -1 }, arch.ErrBadArrays},
		{"zero NumArrays", func(c *arch.Config) { c.NumArrays = 0 }, arch.ErrBadArrays},
		{"zero FreqHz", func(c *arch.Config) { c.FreqHz = 0 }, arch.ErrBadFreq},
		{"zero MemBandwidth", func(c *arch.Config) { c.MemBandwidth = 0 }, arch.ErrBadBandwidth},
		{"sub-byte MemBandwidth", func(c *arch.Config) { c.MemBandwidth = c.FreqHz / 2 }, arch.ErrBadBandwidth},
		{"zero WeightBytes", func(c *arch.Config) { c.WeightBytes = 0 }, arch.ErrBadWeight},
		{"sub-byte HostBandwidth", func(c *arch.Config) { c.HostBandwidth = c.FreqHz / 2 }, arch.ErrBadHostLink},
		{"zero FillLatency", func(c *arch.Config) { c.FillLatency = 0 }, arch.ErrBadFill},
		{"negative FillLatency", func(c *arch.Config) { c.FillLatency = -1 }, arch.ErrBadFill},
		{"SRAM below one block", func(c *arch.Config) { c.WeightSRAM = c.BlockBytes() - 1 }, arch.ErrBadSRAM},
	} {
		cfg := good
		tc.breakCfg(&cfg)
		if _, err := compiler.Compile(nn.ResNet34(), cfg, 1); !errors.Is(err, tc.want) {
			t.Errorf("%s: Compile error %v, want %v", tc.name, err, tc.want)
		}
		if _, err := serve.NewStream(cfg, serve.DefaultClasses(), serve.StreamOptions{Requests: 4}); !errors.Is(err, tc.want) {
			t.Errorf("%s: serve.NewStream error %v, want %v", tc.name, err, tc.want)
		}
		if _, err := sim.Run(cfg, []*compiler.CompiledNetwork{cn}, NewFIFO(), sim.Options{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: sim.Run error %v, want %v", tc.name, err, tc.want)
		}
	}
}
