package aimt

import (
	"aimt/internal/sched"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Property tests: over seeded random small networks and mixes, every
// scheduling policy must (a) satisfy the machine-model invariants and
// (b) execute the identical multiset of memory and compute blocks with
// the same total work — policies reorder work, they never change it.

// blockTrace records the multiset of completed blocks per engine.
type blockTrace struct {
	mbs, cbs []string
}

func (bt *blockTrace) Event(engine, name string, net, layer, iter int, start, end Cycles) {
	key := fmt.Sprintf("%d/%d/%d", net, layer, iter)
	switch {
	case engine == "mem":
		bt.mbs = append(bt.mbs, key)
	case engine == "pe" && !strings.HasPrefix(name, "CB(split)"):
		bt.cbs = append(bt.cbs, key)
	}
}

func (bt *blockTrace) sorted() (mbs, cbs []string) {
	mbs = append([]string(nil), bt.mbs...)
	cbs = append([]string(nil), bt.cbs...)
	sort.Strings(mbs)
	sort.Strings(cbs)
	return mbs, cbs
}

// randomNetwork grows a small conv/FC chain from the seeded source.
func randomNetwork(r *rand.Rand, name string) (*Network, error) {
	b := NewNetwork(name, 1+r.Intn(3), 8, 8)
	for i := 0; i < r.Intn(3); i++ {
		b.Conv(fmt.Sprintf("c%d", i), 2+r.Intn(8), 3, 1, 1)
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		b.FC(fmt.Sprintf("f%d", i), 2+r.Intn(30))
	}
	return b.Build()
}

// namedPolicy labels a scheduler factory in the batteries.
type namedPolicy struct {
	name string
	mk   func() Scheduler
}

// allPolicies returns every registered scheduler plus AI-MT with
// deadline tenant ordering (a configuration no registry entry builds),
// each building fresh instances over nets networks.
func allPolicies(cfg Config, nets int) []namedPolicy {
	in := propertyInput(nets)
	var out []namedPolicy
	for _, e := range sched.Registry() {
		out = append(out, namedPolicy{e.Name, func() Scheduler { return e.New(cfg, in) }})
	}
	return append(out, namedPolicy{"AI-MT+EDF", func() Scheduler {
		return NewAIMT(cfg, AllMechanisms()).SetDeadlines(in.Deadlines)
	}})
}

// propertyInput fabricates per-network scheduler inputs that make the
// input-reading policies reorder work: distinct deadlines (latest
// first, so deadline order inverts instance order), and alternating
// priority bands and memory-intensity flags.
func propertyInput(nets int) SchedulerInput {
	in := SchedulerInput{
		Deadlines:  make([]Cycles, nets),
		Priorities: make([]int, nets),
		MemHeavy:   make([]bool, nets),
	}
	for i := 0; i < nets; i++ {
		in.Deadlines[i] = Cycles(nets-i) * 100_000
		in.Priorities[i] = i % 2
		in.MemHeavy[i] = i%2 == 0
	}
	return in
}

// registrySpecs returns every registered scheduler as a serving spec.
func registrySpecs() []SchedulerSpec {
	var out []SchedulerSpec
	for _, e := range sched.Registry() {
		out = append(out, ServeSpec(e))
	}
	return out
}

// serveSpec resolves a serving spec through the scheduler registry.
func serveSpec(t testing.TB, name string) SchedulerSpec {
	t.Helper()
	e, err := SchedulerByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return ServeSpec(e)
}

func TestPropertyPoliciesAgreeOnWork(t *testing.T) {
	cfg := scenarioConfig(256)
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var nets []*Compiled
			for i := 0; i < 1+r.Intn(3); i++ {
				net, err := randomNetwork(r, fmt.Sprintf("s%dn%d", seed, i))
				if err != nil {
					t.Fatal(err)
				}
				cn, err := Compile(net, cfg, 1+r.Intn(2))
				if err != nil {
					t.Fatal(err)
				}
				nets = append(nets, cn)
			}

			type agreed struct {
				mbs, cbs         []string
				memBusy, cbWork  Cycles
				mbCount, cbCount int
			}
			var want *agreed
			var wantName string
			ideal := IdealBound(nets)
			for _, p := range allPolicies(cfg, len(nets)) {
				var tr blockTrace
				res, err := Run(cfg, nets, p.mk(), RunOptions{CheckInvariants: true, Tracer: &tr})
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				mbs, cbs := tr.sorted()
				got := &agreed{
					mbs: mbs, cbs: cbs,
					memBusy: res.MemBusy,
					cbWork:  res.PEBusy - Cycles(res.Splits)*cfg.FillLatency,
					mbCount: res.MBCount, cbCount: res.CBCount,
				}
				if res.Makespan < ideal {
					t.Errorf("%s: makespan %d below the ideal bound %d", p.name, res.Makespan, ideal)
				}
				if len(got.mbs) != got.mbCount || len(got.cbs) != got.cbCount {
					t.Errorf("%s: traced %d MBs / %d CBs, result counts %d / %d",
						p.name, len(got.mbs), len(got.cbs), got.mbCount, got.cbCount)
				}
				if want == nil {
					want, wantName = got, p.name
					continue
				}
				if !slicesEqual(got.mbs, want.mbs) {
					t.Errorf("%s and %s executed different MB multisets", p.name, wantName)
				}
				if !slicesEqual(got.cbs, want.cbs) {
					t.Errorf("%s and %s executed different CB multisets", p.name, wantName)
				}
				if got.memBusy != want.memBusy {
					t.Errorf("%s memory work %d != %s's %d", p.name, got.memBusy, wantName, want.memBusy)
				}
				if got.cbWork != want.cbWork {
					t.Errorf("%s compute work %d (net of refills) != %s's %d", p.name, got.cbWork, wantName, want.cbWork)
				}
			}
		})
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
