package main

import (
	"strings"
	"testing"
)

// baseOptions mirrors the flag defaults with a short stream.
func baseOptions() options {
	return options{
		requests:  24,
		process:   "poisson",
		seed:      7,
		chips:     1,
		decode:    -1,
		rtrace:    -1,
		benchseed: "BENCH_*.json",
	}
}

func specNames(p plan) []string {
	var out []string
	for _, s := range p.schedulers {
		out = append(out, s.Name)
	}
	return out
}

// TestValidateSchedulers resolves -sched through the registry: every
// spelling in use resolves, the run order is the order given, and an
// unknown name fails up front, naming the known schedulers.
func TestValidateSchedulers(t *testing.T) {
	cases := []struct {
		sched string
		want  string
	}{
		{"", "FIFO,PREMA,AI-MT,EDF"},
		{"AI-MT", "AI-MT"},
		{"EDF,fifo", "EDF,FIFO"},
		{"lookahead", "Lookahead"},
		{" aimt-all , prema", "AI-MT,PREMA"},
	}
	for _, tc := range cases {
		opts := baseOptions()
		opts.scheds = tc.sched
		p, err := validate(opts)
		if err != nil {
			t.Errorf("-sched %q: %v", tc.sched, err)
			continue
		}
		if got := strings.Join(specNames(p), ","); got != tc.want {
			t.Errorf("-sched %q runs %s, want %s", tc.sched, got, tc.want)
		}
	}
	for _, bad := range []string{"FIFO,bogus", "bogus", "FIFO,fifo"} {
		opts := baseOptions()
		opts.scheds = bad
		_, err := validate(opts)
		if err == nil {
			t.Errorf("-sched %q accepted", bad)
			continue
		}
		if strings.Contains(bad, "bogus") && !strings.Contains(err.Error(), "AI-MT") {
			t.Errorf("-sched %q error does not list the known schedulers: %v", bad, err)
		}
	}
}

// TestValidateClusterDefaults: cluster mode runs AI-MT per chip, or
// preemptive AI-MT under -priorities, unless -sched picks one.
func TestValidateClusterDefaults(t *testing.T) {
	opts := baseOptions()
	opts.chips = 2
	for _, tc := range []struct {
		prios bool
		sched string
		want  string
	}{
		{false, "", "AI-MT"},
		{true, "", "AI-MT+Prio"},
		{true, "edf", "EDF"},
	} {
		opts.prios, opts.scheds = tc.prios, tc.sched
		p, err := validate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := specNames(p); len(got) != 1 || got[0] != tc.want {
			t.Errorf("priorities=%v sched=%q: cluster runs %v, want %s", tc.prios, tc.sched, got, tc.want)
		}
	}
}

// TestValidateRoutes resolves -route through the routing table,
// opt-in predictive included, and rejects unknown policies.
func TestValidateRoutes(t *testing.T) {
	opts := baseOptions()
	opts.route = "predictive, Least-Work"
	p, err := validate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.policies) != 2 || p.policies[0].Name != "predictive" || p.policies[1].Name != "least-work" {
		t.Errorf("-route %q resolved to %+v", opts.route, p.policies)
	}
	opts.route = "least-work,teleport"
	if _, err := validate(opts); err == nil || !strings.Contains(err.Error(), "predictive") {
		t.Errorf("unknown -route: got %v, want an error listing the policies", err)
	}
}

// TestRunSmoke drives both sweep paths end to end on tiny streams:
// the opt-in lookahead scheduler on one chip, and predictive routing
// on a two-chip cluster.
func TestRunSmoke(t *testing.T) {
	opts := baseOptions()
	opts.loads = "0.5"
	opts.scheds = "lookahead,AI-MT"
	if err := run(opts); err != nil {
		t.Fatalf("lookahead sweep: %v", err)
	}
	opts = baseOptions()
	opts.loads = "1.5"
	opts.chips = 2
	opts.route = "predictive"
	if err := run(opts); err != nil {
		t.Fatalf("predictive cluster sweep: %v", err)
	}
}
