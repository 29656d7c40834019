package cluster

import (
	"strings"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/core"
	"aimt/internal/serve"
	"aimt/internal/sim"
)

func testStream(t *testing.T, cfg arch.Config, requests int, seed int64) *serve.Stream {
	t.Helper()
	s, err := serve.NewStream(cfg, serve.DefaultClasses(), serve.StreamOptions{
		Requests: requests,
		MeanGap:  5_000,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func aimtSpec() serve.SchedulerSpec {
	return serve.SchedulerSpec{
		Name: "AI-MT",
		New:  func(cfg arch.Config, _ *serve.Stream) sim.Scheduler { return core.New(cfg, core.All()) },
	}
}

// TestDispatchConservesRequests is the dispatcher's conservation
// property: over seeded random streams, every routing policy at every
// cluster size assigns each request to exactly one valid chip — the
// per-chip sub-streams partition the stream with no drops and no
// duplicates.
func TestDispatchConservesRequests(t *testing.T) {
	cfg := arch.PaperConfig()
	for seed := int64(1); seed <= 4; seed++ {
		s := testStream(t, cfg, 40+int(seed)*17, seed)
		for _, chips := range []int{1, 2, 3, 5, 8, 64} {
			for _, pspec := range Policies() {
				assign, err := Dispatch(s, pspec.New(), chips)
				if err != nil {
					t.Fatalf("seed %d %s x%d: %v", seed, pspec.Name, chips, err)
				}
				if len(assign) != len(s.Nets) {
					t.Fatalf("seed %d %s x%d: %d assignments for %d requests",
						seed, pspec.Name, chips, len(assign), len(s.Nets))
				}
				counts := make([]int, chips)
				for i, c := range assign {
					if c < 0 || c >= chips {
						t.Fatalf("seed %d %s x%d: request %d on invalid chip %d", seed, pspec.Name, chips, i, c)
					}
					counts[c]++
				}
				total := 0
				for _, n := range counts {
					total += n
				}
				if total != len(s.Nets) {
					t.Errorf("seed %d %s x%d: chip counts sum to %d, want %d",
						seed, pspec.Name, chips, total, len(s.Nets))
				}
			}
		}
	}
}

// TestServeConservesRequests runs full cluster simulations and checks
// the merged reports cover every request exactly once: aggregate and
// per-chip request counts add up, every request finishes after its
// arrival, and the aggregate latency histogram holds one sample per
// request. Cluster sizes above the request count exercise empty chips.
func TestServeConservesRequests(t *testing.T) {
	cfg := arch.PaperConfig()
	s := testStream(t, cfg, 60, 3)
	for _, chips := range []int{1, 2, 4, 7} {
		for _, pspec := range Policies() {
			res, err := Serve(cfg, s, aimtSpec(), pspec.New(), Options{Chips: chips})
			if err != nil {
				t.Fatalf("%s x%d: %v", pspec.Name, chips, err)
			}
			if res.Agg.Requests != len(s.Nets) {
				t.Errorf("%s x%d: aggregate covers %d of %d requests", pspec.Name, chips, res.Agg.Requests, len(s.Nets))
			}
			if got := res.Agg.Latency.Count(); got != len(s.Nets) {
				t.Errorf("%s x%d: aggregate histogram holds %d samples, want %d", pspec.Name, chips, got, len(s.Nets))
			}
			perChip := 0
			for c, rep := range res.PerChip {
				perChip += rep.Requests
				if rep.Requests == 0 && res.ChipResults[c] != nil {
					t.Errorf("%s x%d: chip %d has a result but no requests", pspec.Name, chips, c)
				}
			}
			if perChip != len(s.Nets) {
				t.Errorf("%s x%d: per-chip requests sum to %d, want %d", pspec.Name, chips, perChip, len(s.Nets))
			}
			for c, cres := range res.ChipResults {
				if cres == nil {
					continue
				}
				for li, fin := range cres.NetFinish {
					if fin <= cres.NetArrive[li] {
						t.Errorf("%s x%d: chip %d request %d finished at %d, arrival %d",
							pspec.Name, chips, c, li, fin, cres.NetArrive[li])
					}
				}
			}
		}
	}
	// More chips than requests: the tail chips stay empty but the
	// cluster still serves everything.
	small := testStream(t, cfg, 5, 9)
	res, err := Serve(cfg, small, aimtSpec(), &roundRobin{}, Options{Chips: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Requests != 5 {
		t.Errorf("8-chip cluster over 5 requests covers %d", res.Agg.Requests)
	}
	empty := 0
	for _, rep := range res.PerChip {
		if rep.Requests == 0 {
			empty++
		}
	}
	if empty != 3 {
		t.Errorf("expected 3 empty chips, got %d", empty)
	}
}

// TestClassAffinityPinsClasses verifies the affinity partition: with
// the chip count a multiple of the class count, every request lands on
// a chip owned by its class.
func TestClassAffinityPinsClasses(t *testing.T) {
	cfg := arch.PaperConfig()
	s := testStream(t, cfg, 80, 5)
	classes := len(s.Classes)
	for _, chips := range []int{classes, 2 * classes} {
		assign, err := Dispatch(s, classAffinity{}, chips)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range assign {
			if c%classes != s.ClassOf[i] {
				t.Fatalf("chips=%d: request %d of class %d routed to chip %d (owner class %d)",
					chips, i, s.ClassOf[i], c, c%classes)
			}
		}
	}
}

// TestLeastWorkBalances checks that least-work spreads a saturating
// stream more evenly than a degenerate all-to-one assignment would:
// no chip stays idle on a 4-chip cluster under heavy load.
func TestLeastWorkBalances(t *testing.T) {
	cfg := arch.PaperConfig()
	s, err := serve.NewStream(cfg, serve.DefaultClasses(), serve.StreamOptions{
		Requests: 64,
		MeanGap:  1, // everything arrives nearly at once: maximum pressure
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := Dispatch(s, leastWork{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, c := range assign {
		counts[c]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("chip %d received no requests under least-work at saturation (counts %v)", c, counts)
		}
	}
}

// TestDispatchRejectsBadPolicy covers the dispatcher's guard against a
// policy returning an out-of-range chip.
func TestDispatchRejectsBadPolicy(t *testing.T) {
	cfg := arch.PaperConfig()
	s := testStream(t, cfg, 4, 1)
	if _, err := Dispatch(s, badPolicy{}, 2); err == nil {
		t.Error("out-of-range pick accepted")
	}
	if _, err := Dispatch(s, leastWork{}, 0); err == nil {
		t.Error("zero-chip cluster accepted")
	}
}

type badPolicy struct{}

func (badPolicy) Name() string                { return "bad" }
func (badPolicy) Pick(v *View, _ Request) int { return v.chips }

// TestPolicyNamesResolve keeps ByName, Names and Policies in sync:
// every table entry, the opt-in predictive policy included, resolves
// in any case and builds the policy it names, and every alias resolves
// to its entry ("deadline" to least-work, which the Deadline type
// routes as).
func TestPolicyNamesResolve(t *testing.T) {
	names := Names()
	if names[len(names)-1] != "predictive" {
		t.Errorf("Names() = %v, want predictive listed", names)
	}
	for _, name := range names {
		for _, spelling := range []string{name, strings.ToUpper(name)} {
			got, err := ByName(spelling)
			if err != nil {
				t.Errorf("ByName(%q): %v", spelling, err)
				continue
			}
			if got.Name != name || got.New().Name() != name {
				t.Errorf("ByName(%q) = spec %q building policy %q", spelling, got.Name, got.New().Name())
			}
		}
	}
	for _, p := range policies {
		for _, alias := range p.Aliases {
			for _, spelling := range []string{alias, strings.ToUpper(alias), " " + alias + " "} {
				if got, err := ByName(spelling); err != nil || got.Name != p.Name {
					t.Errorf("alias ByName(%q) = %q, %v; want %s", spelling, got.Name, err, p.Name)
				}
			}
		}
	}
	if got, err := ByName("deadline"); err != nil || got.New().Name() != "least-work" || (Deadline{}).Name() != "least-work" {
		t.Errorf("deadline resolves to %q (%v) and Deadline names itself %q, want least-work for both",
			got.Name, err, (Deadline{}).Name())
	}
	if len(Policies()) != len(names)-1 {
		t.Errorf("Policies() has %d entries, want every name but predictive", len(Policies()))
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown policy name accepted")
	}
	// Stateful policies must come out fresh per dispatch pass.
	a, b := Policies()[0].New().(*roundRobin), Policies()[0].New().(*roundRobin)
	if a == b {
		t.Error("round-robin spec returned the same instance twice")
	}
}
