package main

import (
	"fmt"
	"io"
	"math/rand"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/compiler"
	"aimt/internal/core"
	"aimt/internal/nn"
	"aimt/internal/obs"
	"aimt/internal/rtrace"
	"aimt/internal/sched"
	"aimt/internal/serve"
	"aimt/internal/sim"
	mixes "aimt/internal/workload"
)

// Workload sizes. One unit of each workload does identical,
// deterministic work on every repetition.
const (
	paperBatch = 4

	serveRequests = 10_000
	serveLoad     = 0.9

	clusterRequests = 4_000
	clusterChips    = 8
	clusterLoad     = 1.2 // per chip: past saturation, so admission sheds
)

// sloLoads is the offered-load grid serve.slo_load searches, and
// sloMissFrac the miss fraction a load must stay within.
var sloLoads = func() []float64 {
	var g []float64
	for l := 40; l <= 120; l += 5 {
		g = append(g, float64(l)/100)
	}
	return g
}()

const sloMissFrac = 0.01

// workload is one seeded input set the benchmark runs.
type workload struct {
	name string
	why  string

	// setup builds the unit's inputs from the seed. It is what setup_s
	// times. size is the number of paper mixes, or of stream requests.
	setup func(cfg arch.Config, seed int64, size int) (instance, error)
	size  int
}

var workloads = []workload{
	{
		name:  "paper-mixes",
		why:   "the paper's 8 CNN+GNMT/VGG16 co-location mixes at batch 4 under AI-MT: engine loop and scheduler picks over large nets and SRAM pressure",
		setup: setupPaperMixes,
		size:  len(mixes.PaperMixes()),
	},
	{
		name:  "serve-poisson",
		why:   "10k-request Poisson stream at offered load 0.9 with no observers: a real queue stresses arrivals, active list, frontiers and the report fold",
		setup: setupStream("serve-poisson"),
		size:  serveRequests,
	},
	{
		name:  "serve-rtrace",
		why:   "the serve-poisson stream with request tracing, metrics registry and ledger attached, as the admin daemon runs it: observer cost dominates",
		setup: setupStream("serve-rtrace"),
		size:  serveRequests,
	},
	{
		name:  "cluster8-transformer",
		why:   "transformer+CNN stream over 8 chips at per-chip load 1.2 with deadline routing and admission: dispatch, chained decode phases and shedding",
		setup: setupStream("cluster8-transformer"),
		size:  clusterRequests,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a workload's inputs, built once by setup.
type instance interface {
	// run executes one unit, the timed work, and returns a function
	// that checks and summarizes its outputs untimed.
	run(o runOpts) (check func() (*outcome, error), err error)

	// compile compiles the instance's networks once more, each call
	// timed, and counts their sub-layers.
	compile(p *probe) error

	// sloLoad returns the highest grid load whose miss fraction stays
	// within sloMissFrac; 0 for workloads without an arrival process.
	sloLoad() (float64, error)
}

// runOpts selects how one unit runs.
type runOpts struct {
	fifo       bool   // FIFO in place of AI-MT: the aimt_speedup baseline
	invariants bool   // machine-model invariant checker on every engine
	probe      *probe // per-layer probes; nil on untraced units
}

// scheduler builds the unit's scheduler for one engine.
func (o runOpts) scheduler(cfg arch.Config) sim.Scheduler {
	if o.fifo {
		return o.probe.scheduler(sched.NewFIFO())
	}
	return o.probe.scheduler(core.New(cfg, core.All()))
}

// paperMixes runs every paper mix, all nets arriving at cycle 0. The
// seed permutes each mix's arrival order, which the schedulers use to
// break ties; the co-located network set is the paper's.
type paperMixes struct {
	cfg   arch.Config
	specs []mixes.Spec
	mixes []*mixes.Mix
}

func setupPaperMixes(cfg arch.Config, seed int64, n int) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &paperMixes{cfg: cfg, specs: mixes.PaperMixes()[:n]}
	for _, spec := range w.specs {
		m, err := mixes.Build(cfg, spec, mixes.BuildOptions{Batch: paperBatch})
		if err != nil {
			return nil, err
		}
		rng.Shuffle(len(m.Nets), func(i, j int) {
			m.Nets[i], m.Nets[j] = m.Nets[j], m.Nets[i]
			m.MemHeavy[i], m.MemHeavy[j] = m.MemHeavy[j], m.MemHeavy[i]
		})
		w.mixes = append(w.mixes, m)
	}
	return w, nil
}

func (w *paperMixes) run(o runOpts) (func() (*outcome, error), error) {
	res := make([]*sim.Result, len(w.mixes))
	for i, m := range w.mixes {
		var err error
		o.probe.span("sim.run", func() {
			res[i], err = sim.Run(w.cfg, m.Nets, o.scheduler(w.cfg), sim.Options{CheckInvariants: o.invariants})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
	}
	return func() (*outcome, error) {
		out := newOutcome()
		for i, m := range w.mixes {
			if err := checkResult(m.Nets, res[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", m.Name, err)
			}
			out.addResult(w.cfg, res[i])
			out.basis = append(out.basis, float64(res[i].Makespan))
			out.addLatencies(res[i], nil)
			// The paper's mixes carry no deadlines: every net is on time.
			out.good += len(m.Nets)
			out.offered += len(m.Nets)
		}
		out.utilFromSums()
		return out, nil
	}, nil
}

func (w *paperMixes) compile(p *probe) error {
	sublayers := 0
	for _, spec := range w.specs {
		for _, name := range append(append([]string(nil), spec.Compute...), spec.Memory...) {
			net, err := nn.ByName(name)
			if err != nil {
				return err
			}
			var cn *compiler.CompiledNetwork
			p.span("compiler.compile", func() { cn, err = compiler.Compile(net, w.cfg, paperBatch) })
			if err != nil {
				return err
			}
			sublayers += cn.Stats().SubLayers
		}
	}
	p.counts["compiler.sublayers"] = float64(sublayers)
	return nil
}

func (w *paperMixes) sloLoad() (float64, error) { return 0, nil }

// streamWorkload is an open-loop request stream served by one chip
// (serve-poisson, serve-rtrace) or by a cluster (cluster8-transformer).
type streamWorkload struct {
	cfg      arch.Config
	seed     int64
	classes  []serve.Class
	requests int
	load     float64 // offered load per chip
	chips    int     // 0 serves on a single chip without the cluster layer
	observed bool    // rtrace collector, obs registry and ledger attached
	s        *serve.Stream
}

func setupStream(name string) func(arch.Config, int64, int) (instance, error) {
	return func(cfg arch.Config, seed int64, requests int) (instance, error) {
		w := &streamWorkload{cfg: cfg, seed: seed, requests: requests, load: serveLoad}
		switch name {
		case "serve-poisson":
			w.classes = serve.DefaultClasses()
		case "serve-rtrace":
			w.classes = serve.DefaultClasses()
			w.observed = true
		case "cluster8-transformer":
			w.classes = serve.TransformerClasses()
			w.load, w.chips = clusterLoad, clusterChips
		}
		s, err := w.stream(w.load)
		if err != nil {
			return nil, err
		}
		w.s = s
		return w, nil
	}
}

// stream draws the workload's Poisson stream at the given per-chip
// offered load. The same seed gives the same request sequence at every
// load; only the gaps scale.
func (w *streamWorkload) stream(load float64) (*serve.Stream, error) {
	probe, err := serve.NewStream(w.cfg, w.classes, serve.StreamOptions{Requests: 1, MeanGap: 1})
	if err != nil {
		return nil, err
	}
	chips := w.chips
	if chips == 0 {
		chips = 1
	}
	gap := arch.Cycles(probe.MeanService / (load * float64(chips)))
	return serve.NewStream(w.cfg, w.classes, serve.StreamOptions{Requests: w.requests, MeanGap: gap, Seed: w.seed})
}

func (w *streamWorkload) run(o runOpts) (func() (*outcome, error), error) {
	if w.chips > 0 {
		return w.runCluster(o)
	}
	return w.runChip(o)
}

// runChip serves the stream on one chip. It makes serve.Serve's two
// calls itself, sim.Run then serve.BuildReport, so that the checks see
// the raw result and the probe can time each layer.
func (w *streamWorkload) runChip(o runOpts) (func() (*outcome, error), error) {
	s := w.s
	opts := sim.Options{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter, CheckInvariants: o.invariants}
	// Observers do not change the schedule, so the FIFO baseline runs
	// without them.
	observed := w.observed && !o.fifo
	var (
		col   *rtrace.Collector
		reg   *obs.Registry
		led   *obs.Ledger
		store *rtrace.Store
		spans []rtrace.RequestSpan
	)
	if observed {
		col = rtrace.NewCollector(len(s.Nets))
		reg = obs.NewRegistry()
		led = obs.NewLedger(obs.DefaultLedgerCap)
		store = rtrace.NewStore(rtrace.Options{})
		opts.Tracer = o.probe.engineTracer(col)
		opts.Metrics, opts.Ledger, opts.NetClasses = reg, led, s.NetClasses()
	}
	var res *sim.Result
	var err error
	o.probe.span("sim.run", func() { res, err = sim.Run(w.cfg, s.Nets, o.scheduler(w.cfg), opts) })
	if err != nil {
		return nil, err
	}
	var rep *serve.Report
	o.probe.span("serve.report", func() { rep = serve.BuildReport(s, res) })
	if observed {
		o.probe.span("rtrace.build", func() { spans = rtrace.Build(serve.TraceInput(s, res, "AI-MT"), col) })
		o.probe.span("rtrace.addrun", func() { store.AddRun(spans) })
		o.probe.span("obs.publish", func() {
			rep.Publish(reg)
			store.Publish(reg)
		})
		o.probe.span("obs.scrape", func() { err = reg.WritePrometheus(io.Discard) })
		if err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
	}
	return func() (*outcome, error) {
		if err := checkResult(s.Nets, res); err != nil {
			return nil, err
		}
		out := newOutcome()
		out.addResult(w.cfg, res)
		out.addLatencies(res, nil)
		out.addReport(rep, len(s.Nets))
		out.utilFromSums()
		if observed {
			if err := checkSpans(spans, s.Requests); err != nil {
				return nil, err
			}
			out.addSpans(spans)
			if o.probe != nil {
				snap := reg.Snapshot()
				o.probe.counts["obs.series"] = float64(len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms))
				o.probe.counts["obs.ledger_decisions"] = float64(led.Total())
			}
		}
		return out, nil
	}, nil
}

// runCluster serves the stream on the cluster: deadline routing with
// admission control, chip engines run by the sweep pool (GOMAXPROCS
// workers).
func (w *streamWorkload) runCluster(o runOpts) (func() (*outcome, error), error) {
	s := w.s
	spec := serve.SchedulerSpec{Name: "AI-MT", New: func(cfg arch.Config, _ *serve.Stream) sim.Scheduler {
		return o.scheduler(cfg)
	}}
	pol := o.probe.routing(cluster.Deadline{})
	var r *cluster.Result
	var err error
	o.probe.span("cluster.serve", func() {
		r, err = cluster.Serve(w.cfg, s, spec, pol, cluster.Options{
			Chips:           w.chips,
			CheckInvariants: o.invariants,
			Control:         cluster.Control{Admission: true},
		})
	})
	if err != nil {
		return nil, err
	}
	return func() (*outcome, error) {
		out, merged, err := checkCluster(w.cfg, s, r, w.chips)
		if err != nil {
			return nil, err
		}
		if o.probe != nil {
			// Layers cluster.Serve runs internally, timed as separate
			// calls after the unit so they do not count toward it.
			o.probe.span("cluster.dispatch", func() { _, err = cluster.Dispatch(s, cluster.Deadline{}, w.chips) })
			if err != nil {
				return nil, err
			}
			o.probe.span("serve.report", func() { serve.BuildReportShed(s, merged, r.Shed) })
		}
		return out, nil
	}, nil
}

func (w *streamWorkload) compile(p *probe) error {
	sublayers := 0
	for _, c := range w.classes {
		batch := c.Batch
		if batch <= 0 {
			batch = 1
		}
		for _, net := range []*nn.Network{c.Net, c.DecodeNet} {
			if net == nil {
				continue
			}
			var cn *compiler.CompiledNetwork
			var err error
			p.span("compiler.compile", func() { cn, err = compiler.Compile(net, w.cfg, batch) })
			if err != nil {
				return err
			}
			sublayers += cn.Stats().SubLayers
		}
	}
	p.counts["compiler.sublayers"] = float64(sublayers)
	return nil
}

// sloLoad binary-searches the load grid, assuming the miss fraction
// grows with load (same seed, only the gaps scale). Observers are
// detached: they do not change the schedule.
func (w *streamWorkload) sloLoad() (float64, error) {
	plain := *w
	plain.observed = false
	missFrac := func(load float64) (float64, error) {
		var err error
		if plain.s, err = plain.stream(load); err != nil {
			return 0, err
		}
		check, err := plain.run(runOpts{})
		if err != nil {
			return 0, err
		}
		o, err := check()
		if err != nil {
			return 0, err
		}
		return 1 - float64(o.good)/float64(o.offered), nil
	}
	lo, hi := -1, len(sloLoads) // sloLoads[lo] meets the target, sloLoads[hi] does not
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		m, err := missFrac(sloLoads[mid])
		if err != nil {
			return 0, err
		}
		if m <= sloMissFrac {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, nil
	}
	return sloLoads[lo], nil
}
