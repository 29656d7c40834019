package sched

import (
	"strings"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/sim"
)

// TestRegistryEntries runs the whole table: every name and alias
// resolves in any case to its own entry, each New call builds a fresh
// scheduler, and every entry completes a small two-network mix with
// staggered arrivals under the invariant checker.
func TestRegistryEntries(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		oneLayer("a", cfg, 3, 20, 6, 1),
		oneLayer("b", cfg, 25, 4, 6, 4),
	}
	in := Input{
		Deadlines:  []arch.Cycles{400, 200},
		Priorities: []int{0, 1},
		MemHeavy:   []bool{false, true},
	}
	seen := map[string]string{}
	for _, e := range Registry() {
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			if prev, dup := seen[strings.ToLower(name)]; dup {
				t.Errorf("%q names both %s and %s", name, prev, e.Name)
			}
			seen[strings.ToLower(name)] = e.Name
			for _, spelling := range []string{name, strings.ToUpper(name), strings.ToLower(name), " " + name + " "} {
				got, err := ByName(spelling)
				if err != nil {
					t.Errorf("ByName(%q): %v", spelling, err)
				} else if got.Name != e.Name {
					t.Errorf("ByName(%q) = %s, want %s", spelling, got.Name, e.Name)
				}
			}
		}
		a, b := e.New(cfg, in), e.New(cfg, in)
		if a == b {
			t.Errorf("%s: New returned the same instance twice", e.Name)
		}
		res, err := sim.Run(cfg, nets, a, sim.Options{Arrivals: []arch.Cycles{0, 15}, CheckInvariants: true})
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if res.CBCount != 12 || res.MBCount != 12 {
			t.Errorf("%s executed %d CBs and %d MBs, want 12 each", e.Name, res.CBCount, res.MBCount)
		}
	}
	if len(Names()) != len(Registry()) {
		t.Errorf("Names() lists %d of %d entries", len(Names()), len(Registry()))
	}
}

// TestRegistryCLISpellings pins the scheduler spellings the commands,
// docs and CI use today.
func TestRegistryCLISpellings(t *testing.T) {
	for spelling, want := range map[string]string{
		"fifo": "FIFO", "rr": "RR", "greedy": "Greedy", "sjf": "SJF",
		"compute-first": "ComputeFirst+PF", "aimt-pf": "AI-MT(PF)",
		"aimt-merge": "AI-MT(PF+Merge)", "aimt-all": "AI-MT", "aimt": "AI-MT",
		"AI-MT": "AI-MT", "lookahead": "Lookahead", "prema": "PREMA", "edf": "EDF",
	} {
		e, err := ByName(spelling)
		if err != nil {
			t.Errorf("ByName(%q): %v", spelling, err)
		} else if e.Name != want {
			t.Errorf("ByName(%q) = %s, want %s", spelling, e.Name, want)
		}
	}
	_, err := ByName("bogus")
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %s", err, name)
		}
	}
}
