package main

import (
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"aimt"
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
	if len(p.routes) != 2 || p.routes[0].Policy.Name != "predictive" || p.routes[1].Policy.Name != "least-work" {
		t.Errorf("-route %q resolved to %+v", opts.route, p.routes)
	}
	for _, r := range p.routes {
		if r.Chips != 1 {
			t.Errorf("-route without -chips routes over %d chips, want 1", r.Chips)
		}
	}
	opts.route, opts.chips = "", 3
	if p, err = validate(opts); err != nil {
		t.Fatal(err)
	}
	if len(p.routes) != 3 || p.routes[0].Chips != 3 {
		t.Errorf("-chips 3 without -route resolved to %+v, want the 3 default policies over 3 chips", p.routes)
	}
	opts.chips = 1
	if p, err = validate(opts); err != nil || p.routes != nil {
		t.Errorf("single-chip sweep resolved to routes %+v (err %v), want none", p.routes, err)
	}
	opts.route = "least-work,teleport"
	if _, err := validate(opts); err == nil || !strings.Contains(err.Error(), "predictive") {
		t.Errorf("unknown -route: got %v, want an error listing the policies", err)
	}
}

// TestValidateRouteAliasesAndDuplicates: an alias resolves to the
// policy it names and runs under that name, and a policy listed twice,
// in any spelling or through an alias, is rejected like a -sched
// duplicate instead of running (and publishing) twice.
func TestValidateRouteAliasesAndDuplicates(t *testing.T) {
	opts := baseOptions()
	opts.route = "deadline"
	p, err := validate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.routes) != 1 || p.routes[0].Policy.Name != "least-work" {
		t.Errorf("-route deadline resolved to %+v, want least-work", p.routes)
	}
	for _, dup := range []string{"least-work,LEAST-WORK", "deadline,least-work", "predictive,round-robin,Predictive"} {
		opts.route = dup
		if _, err := validate(opts); err == nil || !strings.Contains(err.Error(), "listed twice") {
			t.Errorf("-route %q: got %v, want a listed-twice error", dup, err)
		}
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

// TestClusterRunsEveryScheduler: in cluster mode every -sched
// scheduler runs under every -route policy at every load, and each
// (scheduler, policy, load) lands in the run store as one cluster run.
func TestClusterRunsEveryScheduler(t *testing.T) {
	opts := baseOptions()
	opts.loads = "0.8,2"
	opts.chips = 2
	opts.scheds = "FIFO,AI-MT"
	opts.route = "least-work,round-robin"
	opts.runstore = t.TempDir()
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	st, err := aimt.OpenRunStore(opts.runstore)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, r := range st.Runs() {
		if r.Source != "cluster" || r.Label("chips") != "2" {
			t.Errorf("run %s: source %q, chips %q, want a 2-chip cluster run", r.ID, r.Source, r.Label("chips"))
		}
		got[r.Label("sched")+"/"+r.Label("policy")+"@"+r.Label("load")]++
	}
	for _, sched := range []string{"FIFO", "AI-MT"} {
		for _, pol := range []string{"least-work", "round-robin"} {
			for _, load := range []string{"0.80", "2.00"} {
				if key := sched + "/" + pol + "@" + load; got[key] != 1 {
					t.Errorf("%s recorded %d times, want once (runs %v)", key, got[key], got)
				}
			}
		}
	}
	if len(st.Runs()) != 8 {
		t.Errorf("%d runs recorded, want 2 schedulers x 2 policies x 2 loads = 8", len(st.Runs()))
	}
}

// TestHoldEndsOnSignal: a signal ends the admin hold early and is
// reported; without one the hold runs out.
func TestHoldEndsOnSignal(t *testing.T) {
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGTERM
	start := time.Now()
	if got := holdAdmin(time.Minute, sig); got != syscall.SIGTERM {
		t.Errorf("hold ended with %v, want SIGTERM", got)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("signalled hold lasted %v", waited)
	}
	if got := holdAdmin(time.Millisecond, make(chan os.Signal)); got != nil {
		t.Errorf("unsignalled hold ended with %v, want nil", got)
	}
}

// TestAdminServerTimeouts pins the admin server's defence against
// slow clients: every timeout is set, and a full response may outlast
// the default 30 s /debug/pprof/profile capture.
func TestAdminServerTimeouts(t *testing.T) {
	srv := adminServer(http.NewServeMux())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want > 0", name, d)
		}
	}
	if srv.WriteTimeout <= 30*time.Second {
		t.Errorf("WriteTimeout = %v, want > 30s so a default CPU profile completes", srv.WriteTimeout)
	}
	if srv.Handler == nil {
		t.Error("server has no handler")
	}
}
