// Command aimt-serve runs production-scale serving load sweeps: an
// open-loop request stream (Poisson or bursty arrivals over the
// default mixed CNN/RNN mix) walked from light traffic to saturation
// under FIFO, PREMA, AI-MT and deadline-aware EDF, reporting
// p50/p99/p99.9 latency and SLA miss rate at every offered-load point.
//
// Latency distributions stream into bounded-memory histograms, so
// request counts in the hundreds of thousands are routine:
//
//	aimt-serve                         # 10k requests, default loads
//	aimt-serve -requests 100000        # longer stream
//	aimt-serve -loads 0.3,0.9,1.2      # explicit offered loads
//	aimt-serve -process bursty         # bursty arrivals
//	aimt-serve -sched EDF,FIFO         # these schedulers, in this order
//	aimt-serve -sched lookahead        # opt-in speculative lookahead
//	aimt-serve -cpuprofile cpu.pprof   # profile the sweep (pprof)
//
// With -chips N (or -route) the sweep runs against a simulated
// multi-chip cluster: a dispatcher routes each request to one of N
// independent chip engines, and offered loads are per chip. Every
// -sched scheduler runs under every -route policy:
//
//	aimt-serve -chips 4 -route least-work   # 4-chip cluster, one policy
//	aimt-serve -chips 8                     # compare the default policies
//	aimt-serve -chips 2 -sched FIFO,AI-MT   # both schedulers x every policy
//	aimt-serve -chips 4 -route predictive   # opt-in forward-simulated routing
//	aimt-serve -chips 2 -route deadline     # alias: runs and prints as least-work
//	aimt-serve -chips 4 -perchip            # include per-chip breakdowns
//
// The overload control plane rides on cluster mode (any of these flags
// implies it): -admission sheds lowest-priority requests whose
// predicted completion misses the deadline, -priorities makes the CNN
// class premium (priority 1) and switches the per-chip scheduler to
// preemptive AI-MT so premium compute blocks displace batch work, and
// -autoscale grows the active chip set from 1 toward -chips under
// sustained backlog (shrinking when it drains):
//
//	aimt-serve -chips 2 -admission -priorities -loads 0.8,2,5
//	aimt-serve -chips 4 -admission -autoscale -priorities
//
// With -admin the sweep is observable while it runs: an HTTP server
// exposes live engine counters and gauges in Prometheus text form,
// a JSON snapshot with the scheduler decision ledger tail, and pprof:
//
//	aimt-serve -admin :8080            # /metrics, /healthz, /runs,
//	                                   # /requests, /debug/snapshot,
//	                                   # /debug/pprof/
//	aimt-serve -admin :8080 -hold 1m   # keep serving 1m after the sweep;
//	                                   # SIGINT/SIGTERM ends the hold and
//	                                   # shuts the server down cleanly
//	aimt-serve -ledger dec.jsonl       # dump the decision ledger
//
// Request tracing auto-enables with -admin (1-in-16 sampling plus the
// worst tail exemplars per class): /requests serves the sampled spans
// and the cycle-exact latency attribution as JSON, /runs grows a
// tail-exemplar waterfall, and the sweep prints a per-class
// attribution report on exit. -rtrace N forces 1-in-N sampling even
// without -admin; -rtrace 0 turns tracing off:
//
//	aimt-serve -rtrace 1               # trace every request
//	aimt-serve -admin :8080 -rtrace 0  # admin surface, no tracing
//
// With -runstore every report of the sweep is appended to an
// append-only run history (one JSONL line per load point x policy,
// labeled with mix/scheduler/load/commit), and the -admin surface
// grows a /runs dashboard plotting load curves, the decision-ledger
// timeline and cross-run perf trajectories; the checked-in
// BENCH_*.json artifacts (override the glob with -benchseed) are
// ingested as seed history so the trajectory starts at PR 3:
//
//	aimt-serve -runstore runs/                  # record this sweep
//	aimt-serve -runstore runs/ -admin :8080     # ...and browse /runs
//	aimt-benchjson -diff runs/ runs/#run-000001 # diff two runs
//
// With -transformer the stream is the transformer/CNN mix: each chat
// request is one prefill burst plus chained autoregressive decode
// iterations with per-token deadlines, and every report grows
// per-phase latency columns plus the tokens-per-megacycle headline
// (tokens/sec/chip lands in /metrics in cluster mode). -decode
// overrides the chat class's decode length:
//
//	aimt-serve -transformer                  # prefill + 8 decode tokens
//	aimt-serve -transformer -decode 32       # longer generations
//	aimt-serve -transformer -chips 4         # KV-affine cluster routing
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aimt"
	"aimt/internal/profiling"
)

// Admin server timeouts. They bound how long a slow or stalled client
// can hold a connection, and the goroutine serving it: one that never
// finishes its headers is dropped after adminReadHeaderTimeout.
// WriteTimeout bounds a whole response, so it outlasts the 30 s CPU
// profile /debug/pprof/profile takes by default. A clean shutdown
// waits at most adminShutdownTimeout for in-flight responses.
const (
	adminReadHeaderTimeout = 5 * time.Second
	adminReadTimeout       = 10 * time.Second
	adminWriteTimeout      = 90 * time.Second
	adminIdleTimeout       = 120 * time.Second
	adminShutdownTimeout   = 5 * time.Second
)

// adminServer builds the admin endpoint server around its mux.
func adminServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: adminReadHeaderTimeout,
		ReadTimeout:       adminReadTimeout,
		WriteTimeout:      adminWriteTimeout,
		IdleTimeout:       adminIdleTimeout,
	}
}

type options struct {
	requests    int
	process     string
	loads       string
	scheds      string
	seed        int64
	parallel    int
	check       bool
	chips       int
	route       string
	perchip     bool
	admission   bool
	prios       bool
	autoscale   bool
	admin       string
	hold        time.Duration
	ledgerOut   string
	transformer bool
	decode      int
	runstore    string
	benchseed   string
	rtrace      int
}

func main() {
	var (
		opts       options
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.IntVar(&opts.requests, "requests", 10_000, "requests per load point")
	flag.StringVar(&opts.process, "process", "poisson", "arrival process: poisson or bursty")
	flag.StringVar(&opts.loads, "loads", "", "comma-separated offered loads (empty = default sweep)")
	flag.StringVar(&opts.scheds, "sched", "", "comma-separated schedulers in run order (empty = FIFO,PREMA,AI-MT,EDF; cluster mode runs each under every route, default AI-MT): "+strings.Join(aimt.SchedulerNames(), ", "))
	flag.Int64Var(&opts.seed, "seed", 7, "stream seed")
	flag.IntVar(&opts.parallel, "parallel", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	flag.BoolVar(&opts.check, "check", false, "run the machine-model invariant checker on every simulation")
	flag.IntVar(&opts.chips, "chips", 1, "simulated cluster size; >1 routes the stream across independent chips")
	flag.StringVar(&opts.route, "route", "", "comma-separated routing policies for cluster mode (empty = all but predictive; deadline is an alias of least-work; predictive forward-simulates every pick at over 1000x least-work's host time and, with -admission, gains goodput only far past saturation and loses it near saturation): "+strings.Join(aimt.ClusterPolicyNames(), ", "))
	flag.BoolVar(&opts.perchip, "perchip", false, "in cluster mode, print per-chip breakdowns for every result")
	flag.BoolVar(&opts.admission, "admission", false, "SLO-aware admission control: shed lowest-priority requests predicted to miss their deadline (implies cluster mode)")
	flag.BoolVar(&opts.prios, "priorities", false, "two-band priority mix (CNN premium) with preemptive AI-MT per chip (implies cluster mode)")
	flag.BoolVar(&opts.autoscale, "autoscale", false, "elastic autoscaling of the active chip set up to -chips (implies cluster mode)")
	flag.StringVar(&opts.admin, "admin", "", "serve /metrics, /healthz, /debug/snapshot and /debug/pprof/ on this address (e.g. :8080)")
	flag.DurationVar(&opts.hold, "hold", 0, "with -admin, keep the admin server up this long after the sweep finishes")
	flag.StringVar(&opts.ledgerOut, "ledger", "", "write the scheduler decision ledger as JSON Lines to this file")
	flag.BoolVar(&opts.transformer, "transformer", false, "serve the transformer/CNN mix: chat requests are one prefill burst plus chained decode iterations with per-token deadlines")
	flag.IntVar(&opts.decode, "decode", -1, "with -transformer, override the chat class's decode iterations per request (-1 = default)")
	flag.StringVar(&opts.runstore, "runstore", "", "append every report of the sweep to the run-history store under this directory")
	flag.StringVar(&opts.benchseed, "benchseed", "BENCH_*.json", "glob of bench JSON artifacts ingested as seed history for the /runs dashboard")
	flag.IntVar(&opts.rtrace, "rtrace", -1, "request tracing: sample 1-in-N requests into the tail-attribution store (0 = off, -1 = auto: on with -admin)")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aimt-serve: %v\n", err)
		os.Exit(1)
	}
	runErr := run(opts)
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "aimt-serve: %v\n", runErr)
		os.Exit(1)
	}
}

// plan is the validated flag selection.
type plan struct {
	// loads are the parsed -loads factors (nil = default sweep).
	loads []float64
	// schedulers are the -sched selection in the order given; every
	// one runs under every route.
	schedulers []aimt.SchedulerSpec
	// routes are the -route selection (every default policy when
	// -route is empty) over -chips chips in cluster mode: -chips above
	// 1, -route, or any control-plane flag. Nil runs every scheduler
	// unrouted on one chip.
	routes []aimt.ClusterRoute
}

// validate rejects bad flag combinations before any simulation work.
func validate(opts options) (plan, error) {
	var p plan
	if opts.requests <= 0 {
		return p, fmt.Errorf("-requests must be positive, got %d", opts.requests)
	}
	if opts.chips < 1 {
		return p, fmt.Errorf("-chips must be at least 1, got %d", opts.chips)
	}
	if opts.parallel < 0 {
		return p, fmt.Errorf("-parallel must be non-negative, got %d", opts.parallel)
	}
	switch strings.ToLower(opts.process) {
	case "", "poisson", "bursty":
	default:
		return p, fmt.Errorf("unknown -process %q (want poisson or bursty)", opts.process)
	}
	if opts.loads != "" {
		for _, f := range strings.Split(opts.loads, ",") {
			load, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || load <= 0 {
				return p, errors.New("-loads values must be positive numbers, got " + strconv.Quote(f))
			}
			p.loads = append(p.loads, load)
		}
	}
	cluster := opts.chips > 1 || opts.route != "" || opts.admission || opts.prios || opts.autoscale
	scheds := opts.scheds
	if scheds == "" && cluster {
		// Cluster mode compares routing policies under AI-MT, or under
		// preemptive AI-MT with -priorities so the premium band can
		// displace executing batch work.
		scheds = "AI-MT"
		if opts.prios {
			scheds = "AI-MT+Prio"
		}
	}
	if scheds == "" {
		p.schedulers = aimt.ServeStandardSchedulers()
	} else {
		seen := map[string]bool{}
		for _, n := range strings.Split(scheds, ",") {
			e, err := aimt.SchedulerByName(n)
			if err != nil {
				return p, fmt.Errorf("-sched: %w", err)
			}
			if seen[e.Name] {
				return p, fmt.Errorf("-sched: %s listed twice", e.Name)
			}
			seen[e.Name] = true
			p.schedulers = append(p.schedulers, aimt.ServeSpec(e))
		}
	}
	if cluster {
		policies := aimt.ClusterPolicies()
		if opts.route != "" {
			policies = nil
			seen := map[string]bool{}
			for _, n := range strings.Split(opts.route, ",") {
				pspec, err := aimt.ClusterPolicyByName(n)
				if err != nil {
					return p, fmt.Errorf("-route: %w", err)
				}
				if seen[pspec.Name] {
					return p, fmt.Errorf("-route: %s listed twice", pspec.Name)
				}
				seen[pspec.Name] = true
				policies = append(policies, pspec)
			}
		}
		for _, pspec := range policies {
			p.routes = append(p.routes, aimt.ClusterRoute{Policy: pspec, Chips: opts.chips})
		}
	}
	if opts.hold < 0 {
		return p, fmt.Errorf("-hold must be non-negative, got %v", opts.hold)
	}
	if opts.decode < -1 {
		return p, fmt.Errorf("-decode must be non-negative, got %d", opts.decode)
	}
	if opts.decode >= 0 && !opts.transformer {
		return p, errors.New("-decode requires -transformer")
	}
	if opts.hold > 0 && opts.admin == "" {
		return p, errors.New("-hold requires -admin")
	}
	if opts.rtrace < -1 {
		return p, fmt.Errorf("-rtrace must be -1 (auto), 0 (off) or a positive sampling divisor, got %d", opts.rtrace)
	}
	return p, nil
}

func run(opts options) error {
	p, err := validate(opts)
	if err != nil {
		return err
	}

	cfg := aimt.PaperConfig()
	classes := aimt.DefaultServingClasses()
	mixName := "CNN/RNN"
	if opts.transformer {
		classes = aimt.TransformerServingClasses()
		mixName = "transformer/CNN"
		if opts.decode >= 0 {
			classes[0].Decode = opts.decode
		}
	}
	if opts.prios {
		classes[0].Priority = 1
	}

	sopts := aimt.ServeStreamOptions{Requests: opts.requests, Seed: opts.seed}
	if strings.EqualFold(opts.process, "bursty") {
		sopts.Process = aimt.ServeBursty
	}

	// Run history: every report of the sweep is appended here, and the
	// admin dashboard reads it back live.
	var store *aimt.RunStore
	if opts.runstore != "" {
		store, err = aimt.OpenRunStore(opts.runstore)
		if err != nil {
			return fmt.Errorf("-runstore: %w", err)
		}
	}

	// Observability: one registry and ledger shared by every run of
	// the sweep, served live when -admin is set.
	var reg *aimt.ObsRegistry
	var led *aimt.ObsLedger
	if opts.admin != "" || opts.ledgerOut != "" {
		reg = aimt.NewObsRegistry()
		led = aimt.NewObsLedger(0)
	}

	// Request tracing: sampled spans plus worst-N tail exemplars,
	// attributed cycle-by-cycle. Auto-enables with -admin so /requests
	// and the /runs waterfall have data; off otherwise unless forced.
	sample := opts.rtrace
	if sample == -1 {
		sample = 0
		if opts.admin != "" {
			sample = 16
		}
	}
	var rstore *aimt.RequestTraceStore
	if sample > 0 {
		rstore = aimt.NewRequestTraceStore(aimt.RequestTraceOptions{SampleEvery: sample})
	}

	if opts.admin != "" {
		mux := aimt.ObsHandler(reg, led)
		profiling.AttachPprof(mux)
		// The /runs dashboard serves the checked-in bench artifacts as
		// seed history ahead of whatever this sweep appends.
		seeds, err := aimt.LoadBenchHistory(opts.benchseed)
		if err != nil {
			return fmt.Errorf("-benchseed: %w", err)
		}
		aimt.ObsAttachRuns(mux, func() []aimt.StoredRun {
			runs := append([]aimt.StoredRun{}, seeds...)
			if store != nil {
				runs = append(runs, store.Runs()...)
			}
			return runs
		}, led, rstore.WaterfallHTML)
		if rstore != nil {
			aimt.AttachRequestTraces(mux, rstore)
		}
		// Bind synchronously so the endpoints answer for the whole
		// sweep, not only once it finishes.
		ln, err := net.Listen("tcp", opts.admin)
		if err != nil {
			return fmt.Errorf("-admin: %w", err)
		}
		defer ln.Close()
		srv := adminServer(mux)
		go func() { _ = srv.Serve(ln) }()
		defer shutdownAdmin(srv)
		fmt.Printf("admin: serving /metrics, /healthz, /runs, /debug/snapshot, /debug/pprof/ on %s\n", ln.Addr())
	}

	// Translate explicit offered loads into mean arrival gaps. In
	// cluster mode the loads are per chip: N chips at load L absorb an
	// aggregate arrival rate N*L, so the stream gap shrinks by N.
	var gaps []aimt.Cycles
	if len(p.loads) > 0 {
		chipLoads := make([]float64, len(p.loads))
		for i, load := range p.loads {
			chipLoads[i] = load * float64(opts.chips)
		}
		if gaps, err = aimt.ServeGaps(cfg, classes, chipLoads...); err != nil {
			return err
		}
	}

	points, err := aimt.ServeSweep(cfg, classes, p.schedulers, aimt.ServeSweepOptions{
		Options: aimt.ClusterOptions{
			Workers:         opts.parallel,
			CheckInvariants: opts.check,
			Metrics:         reg,
			Ledger:          led,
			Trace:           rstore,
			Control:         aimt.ClusterControl{Admission: opts.admission, Autoscale: opts.autoscale},
		},
		Stream: sopts,
		Gaps:   gaps,
		Routes: p.routes,
	})
	if err != nil {
		return err
	}
	if p.routes != nil {
		names := make([]string, len(p.schedulers))
		for i, spec := range p.schedulers {
			names[i] = spec.Name
		}
		fmt.Printf("Cluster load sweep: %s mix, %d chips x %s per chip, %d requests per point, %s arrivals\n\n",
			mixName, opts.chips, strings.Join(names, ","), opts.requests, opts.process)
	} else {
		fmt.Printf("Serving load sweep: %s mix, %d requests per point, %s arrivals\n\n", mixName, opts.requests, opts.process)
	}
	if err := aimt.PrintServeCurve(os.Stdout, points); err != nil {
		return err
	}
	if store != nil {
		stored, err := aimt.RecordServeCurve(store, mixName, strings.ToLower(opts.process), aimt.CurrentCommit(), points)
		if err != nil {
			return err
		}
		fmt.Printf("runstore: appended %d runs to %s\n", len(stored), opts.runstore)
	}
	if opts.perchip && p.routes != nil {
		for _, pt := range points {
			for _, r := range pt.Results {
				fmt.Printf("\nper-chip, %s/%s at per-chip load %.2f:\n", r.Scheduler, r.Policy, pt.OfferedLoad/float64(r.Chips))
				if err := aimt.PrintClusterChips(os.Stdout, r); err != nil {
					return err
				}
			}
		}
	}

	if rstore != nil {
		rows := rstore.Attribution()
		if len(rows) > 0 {
			total, shedCount, sampled := rstore.Totals()
			fmt.Printf("\nRequest-latency attribution (%d requests, %d shed, %d sampled 1-in-%d):\n",
				total, shedCount, sampled, rstore.SampleEvery())
			if err := aimt.PrintRequestAttribution(os.Stdout, rows); err != nil {
				return err
			}
		}
	}

	if opts.ledgerOut != "" {
		f, err := os.Create(opts.ledgerOut)
		if err != nil {
			return err
		}
		if err := led.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("ledger: wrote %d of %d decisions to %s\n", led.Len(), led.Total(), opts.ledgerOut)
	}
	if opts.admin != "" && opts.hold > 0 {
		// Listen before announcing the hold, so a signal sent once the
		// line is out always ends the hold cleanly.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		fmt.Printf("admin: holding for %v (ctrl-c to stop)\n", opts.hold)
		if s := holdAdmin(opts.hold, sig); s != nil {
			fmt.Printf("admin: %v, shutting down\n", s)
		}
	}
	return nil
}

// holdAdmin keeps the admin server up for d, or until a signal arrives
// on sig, which it returns (nil when the hold ran out).
func holdAdmin(d time.Duration, sig <-chan os.Signal) os.Signal {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case s := <-sig:
		return s
	}
}

// shutdownAdmin stops the admin server: it closes the listener, lets
// in-flight requests finish for up to adminShutdownTimeout, then drops
// what is left.
func shutdownAdmin(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), adminShutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
}
