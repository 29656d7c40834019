// Command benchmark measures the aimt simulator end to end on four
// seeded workloads and, with -trace 1, layer by layer. It imports the
// module's internal packages and times only calls into their public
// functions; the program carries no benchmark hooks.
//
// From the repository root:
//
//	bash benchmark/run.sh --workload serve-poisson --seed 7 --seconds 10 --trace 0
//	(cd benchmark && go run . -trace 1)    # every workload, per-layer metrics
//
// Each workload prints its metrics one per line, then one JSON line
// with the keys correct, attempted, failed and metrics. See README.md
// for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"aimt/internal/arch"
	"aimt/internal/metrics"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root declares the same list.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics: allowed worsening as a share of the baseline
}

// endToEnd metrics are printed by untraced runs, on every workload.
var endToEnd = []metricDef{
	{"sim_kblocks_per_s", "kblocks/s", "higher", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"sim_p50_kcycles", "kcycles", "lower", 0.10},
	{"sim_p99_kcycles", "kcycles", "lower", 0.15},
	{"sim_goodput_frac", "frac", "higher", 0.05},
	{"aimt_speedup", "x", "higher", 0.20},
}

// perLayer metrics are printed by traced runs, on every workload. Host
// time of a layer that not every workload runs is given as a share of
// the unit's host time, so it reads 0, not a time, where the layer does
// not run.
var perLayer = []metricDef{
	{name: "compiler.compile_ms", unit: "ms", better: "lower"},
	{name: "compiler.sublayers", unit: "count", better: "lower"},
	{name: "compiler.setup_share", unit: "frac", better: "lower"},
	{name: "sim.run_ms", unit: "ms", better: "lower"},
	{name: "sim.self_ms", unit: "ms", better: "lower"},
	{name: "sim.ns_per_block", unit: "ns", better: "lower"},
	{name: "sim.run_allocs", unit: "count", better: "lower"},
	{name: "sim.pe_util", unit: "frac", better: "higher"},
	{name: "sim.mem_util", unit: "frac", better: "higher"},
	{name: "sim.splits", unit: "count", better: "lower"},
	{name: "core.picks", unit: "count", better: "lower"},
	{name: "core.pick_ns", unit: "ns", better: "lower"},
	{name: "core.hook_ns", unit: "ns", better: "lower"},
	{name: "core.pickmb_idle_frac", unit: "frac", better: "lower"},
	{name: "sram.peak_frac", unit: "frac", better: "lower"},
	{name: "serve.report_share", unit: "frac", better: "lower"},
	{name: "serve.report_allocs", unit: "count", better: "lower"},
	{name: "serve.served", unit: "count", better: "higher"},
	{name: "serve.tok_per_mcycle", unit: "tok/Mcycle", better: "higher"},
	{name: "serve.slo_load", unit: "load", better: "higher"},
	{name: "cluster.policy_picks", unit: "count", better: "lower"},
	{name: "cluster.policy_share", unit: "frac", better: "lower"},
	{name: "cluster.dispatch_share", unit: "frac", better: "lower"},
	{name: "cluster.shed_frac", unit: "frac", better: "lower"},
	{name: "cluster.imbalance", unit: "frac", better: "lower"},
	{name: "sweep.parallel_eff", unit: "frac", better: "higher"},
	{name: "rtrace.events", unit: "count", better: "lower"},
	{name: "rtrace.event_share", unit: "frac", better: "lower"},
	{name: "rtrace.build_share", unit: "frac", better: "lower"},
	{name: "rtrace.build_allocs", unit: "count", better: "lower"},
	{name: "rtrace.addrun_share", unit: "frac", better: "lower"},
	{name: "obs.publish_share", unit: "frac", better: "lower"},
	{name: "obs.scrape_share", unit: "frac", better: "lower"},
	{name: "obs.series", unit: "count", better: "lower"},
	{name: "obs.ledger_decisions", unit: "count", better: "lower"},
	{name: "bench.units", unit: "count", better: "higher"},
	{name: "bench.allocs_per_unit", unit: "count", better: "lower"},
	{name: "bench.calib_ms_p50", unit: "ms", better: "lower"},
	{name: "bench.unit_ms_p50", unit: "ms", better: "lower"},
	{name: "bench.unit_ms_p90", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "bench.layer_coverage", unit: "frac", better: "higher"},
}

// options control one measurement.
type options struct {
	seed      int64
	sets      int     // seeded input sets the run builds and cycles through
	seconds   float64 // measurement time budget
	trace     bool    // alternate probed units with plain ones; report per-layer metrics
	minUnits  int     // measured units to run even past the time budget
	setupReps int     // set-ups timed for setup_s
}

// inputSets is how many seeded input sets a run builds. A single
// stream's tail latency moves by 15-20% from one seed to the next, and
// FIFO's mean latency near saturation by more; pooling 32 input sets
// makes every metric a property of the seed's whole draw instead.
const inputSets = 32

// inputSeeds derives n input-set seeds from the run's seed, the first
// being the seed itself.
func inputSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := []int64{seed}
	for len(seeds) < n {
		seeds = append(seeds, rng.Int63())
	}
	return seeds
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's measurement.
type report struct {
	workload  string
	seed      int64
	traced    bool
	digest    uint64 // FNV-1a over the reference outcomes of every input set
	attempted int
	failed    int
	failures  []string // the first few check failures
	refs      []*outcome
	defs      []metricDef
	values    map[string]float64
}

func (r *report) correct() bool { return r.failed == 0 }

func (r *report) fail(what string, err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// unit runs one untimed unit and checks its outputs.
func (r *report) unit(inst instance, o runOpts, want *outcome) (*outcome, error) {
	r.attempted++
	check, err := inst.run(o)
	return verify(check, err, want)
}

// verify checks the outputs of a unit whose run returned check and err;
// want, when non-nil, is the reference outcome it must reproduce.
func verify(check func() (*outcome, error), err error, want *outcome) (*outcome, error) {
	if err != nil {
		return nil, err
	}
	o, err := check()
	if err != nil {
		return nil, err
	}
	if want != nil && o.digest() != want.digest() {
		return nil, fmt.Errorf("digest %016x, reference %016x", o.digest(), want.digest())
	}
	return o, nil
}

// measure sets the workload up, runs its units and computes its
// metrics.
func measure(w workload, opt options) (*report, error) {
	cfg := arch.PaperConfig()
	// An unvalidated PaperConfig leaves FillLatency at 0 and silently
	// simulates a different machine.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &report{workload: w.name, seed: opt.seed, traced: opt.trace, values: map[string]float64{}}
	// One CPU: on a small shared machine a unit spread over two CPUs
	// varies by 5% from run to run even in CPU time, and per-CPU pools
	// and the garbage collector behave the same on every unit only when
	// the goroutines share one. The cluster's sweep pool gets GOMAXPROCS
	// workers, so its chips run one after another.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	seeds := inputSeeds(opt.seed, opt.sets)
	insts := make([]instance, len(seeds))
	// The first set-up is a warm-up: it grows the heap the later ones
	// reuse. Each starts from the same live heap, so the garbage
	// collector runs at the same points in every one.
	var setup []float64
	for i := 0; i <= opt.setupReps; i++ {
		clear(insts)
		runtime.GC()
		var err error
		cal := calibrated(func() {
			for k, seed := range seeds {
				if insts[k], err = w.setup(cfg, seed, w.size); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		if i > 0 {
			setup = append(setup, cal)
		}
	}

	// Each input set's first unit is its reference: every later unit on
	// it must reproduce its outputs exactly, with invariant checking on
	// and with probes attached. FIFO runs once per set for the speedup.
	h := fnv.New64a()
	var fifos []*outcome
	for k, inst := range insts {
		ref, err := r.unit(inst, runOpts{}, nil)
		if err != nil {
			return nil, fmt.Errorf("%s reference unit: %w", w.name, err)
		}
		r.refs = append(r.refs, ref)
		fmt.Fprintf(h, "%016x", ref.digest())
		fifo, err := r.unit(inst, runOpts{fifo: true}, nil)
		if err != nil {
			r.fail(fmt.Sprintf("FIFO unit on input set %d", k), err)
		}
		fifos = append(fifos, fifo)
	}
	r.digest = h.Sum64()
	if _, err := r.unit(insts[0], runOpts{invariants: true}, r.refs[0]); err != nil {
		r.fail("invariant-checked unit", err)
	}

	// Timed units cycle through the input sets. A traced run pairs a
	// plain unit with a probed one on the same set.
	var (
		plainCal, tracedCal, rawMs, kernelMs []float64
		allocs                               = make([][]float64, len(insts)) // per input set
		layers                               []map[string]float64
		units                                int
	)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for units < opt.minUnits || time.Now().Before(deadline) {
		k, traced := units%len(insts), false
		if opt.trace {
			k, traced = units/2%len(insts), units%2 == 1
		}
		units++
		var p *probe
		if traced {
			p = newProbe()
		}
		runtime.GC()
		kernel := referenceKernel()
		a0, c0, start := heapObjects(), cpuTime(), time.Now()
		check, err := insts[k].run(runOpts{probe: p})
		dur, cpu, a1 := time.Since(start), cpuTime()-c0, heapObjects()
		r.attempted++
		var covered time.Duration
		if p != nil {
			covered = p.spanTotal()
		}
		o, err := verify(check, err, r.refs[k])
		if err != nil {
			r.fail(fmt.Sprintf("unit %d on input set %d", units, k), err)
			continue
		}
		// Calibrated host seconds per simulated block: input sets differ
		// in size, so per-block cost is what units share.
		perBlock := cpu.Seconds() / kernel.Seconds() * kernelRefSeconds / float64(o.blocks)
		kernelMs = append(kernelMs, float64(kernel)/float64(time.Millisecond))
		if traced {
			tracedCal = append(tracedCal, perBlock)
			layers = append(layers, p.layerValues(o, dur, covered, runtime.GOMAXPROCS(0)))
			continue
		}
		plainCal = append(plainCal, perBlock)
		rawMs = append(rawMs, float64(dur)/float64(time.Millisecond))
		allocs[k] = append(allocs[k], float64(a1-a0))
	}
	if len(plainCal) == 0 || (opt.trace && len(tracedCal) == 0) {
		return r, fmt.Errorf("%s: no unit passed its checks", w.name)
	}

	// End-to-end metrics come from the plain units and the reference
	// outcomes, traced run or not; a traced run prints the per-layer ones.
	var lat []arch.Cycles
	var good, offered int
	var base, aimt []float64
	for k, ref := range r.refs {
		lat = append(lat, ref.lat...)
		good += ref.good
		offered += ref.offered
		if fifos[k] != nil {
			base = append(base, fifos[k].basis...)
			aimt = append(aimt, ref.basis...)
		}
	}
	v := r.values
	v["sim_kblocks_per_s"] = 1 / lowerDecile(plainCal) / 1e3
	v["setup_s"] = median(setup)
	v["sim_p50_kcycles"] = float64(metrics.Percentile(lat, 50)) / 1e3
	v["sim_p99_kcycles"] = float64(metrics.Percentile(lat, 99)) / 1e3
	v["sim_goodput_frac"] = float64(good) / float64(offered)
	v["aimt_speedup"] = speedup(base, aimt)
	r.defs = endToEnd
	if !opt.trace {
		return r, nil
	}

	r.defs = perLayer
	for _, d := range perLayer {
		var vals []float64
		for _, l := range layers {
			vals = append(vals, l[d.name])
		}
		r.values[d.name] = median(vals)
	}
	// The compiler runs inside set-up, so it is timed as separate calls
	// on the first input set's networks, beside a whole set-up of it.
	var compileMs, compileShare []float64
	for i := 0; i < opt.setupReps; i++ {
		p := newProbe()
		var err error
		p.span("setup", func() { _, err = w.setup(cfg, seeds[0], w.size) })
		if err == nil {
			err = insts[0].compile(p)
		}
		if err != nil {
			return nil, fmt.Errorf("%s compile: %w", w.name, err)
		}
		compileMs = append(compileMs, float64(p.ns["compiler.compile"])/float64(time.Millisecond))
		compileShare = append(compileShare, float64(p.ns["compiler.compile"])/float64(p.ns["setup"]))
		r.values["compiler.sublayers"] = p.counts["compiler.sublayers"]
	}
	r.values["compiler.compile_ms"] = median(compileMs)
	r.values["compiler.setup_share"] = median(compileShare)
	slo, err := insts[0].sloLoad()
	if err != nil {
		r.fail("slo_load search", err)
	}
	r.values["serve.slo_load"] = slo
	r.values["bench.units"] = float64(units)
	// Each input set allocates the same on every unit; averaging over
	// the sets keeps one set's count from deciding the metric.
	var perSet []float64
	for _, a := range allocs {
		if len(a) > 0 {
			perSet = append(perSet, median(a))
		}
	}
	r.values["bench.allocs_per_unit"] = mean(perSet)
	r.values["bench.calib_ms_p50"] = median(kernelMs)
	r.values["bench.unit_ms_p50"] = median(rawMs)
	r.values["bench.unit_ms_p90"] = quantile(rawMs, 0.9)
	r.values["bench.trace_overhead_frac"] = lowerDecile(tracedCal)/lowerDecile(plainCal) - 1
	return r, nil
}

// speedup is the geometric mean of base[i] ÷ x[i]; 0 when there is
// nothing to compare.
func speedup(base, x []float64) float64 {
	if len(base) == 0 || len(base) != len(x) {
		return 0
	}
	ratios := make([]float64, len(base))
	for i := range base {
		ratios[i] = base[i] / x[i]
	}
	return metrics.GeoMean(ratios)
}

// print writes the report: one metric per line, then the JSON result
// line.
func (r *report) print(w io.Writer) error {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d %s: %d units, %d failed, digest %016x\n",
		r.workload, r.seed, mode, r.attempted, r.failed, r.digest)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	ms := map[string]value{}
	for _, d := range r.defs {
		v := r.values[d.name]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, v, d.unit)
		ms[d.name] = value{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// boolFlag parses 0/1/true/false as the flag's argument, so that both
// "-trace 1" and "-trace=true" work.
type boolFlag bool

func (b *boolFlag) String() string { return strconv.FormatBool(bool(*b)) }

func (b *boolFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolFlag(v)
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run (empty runs all four)")
		seed     = fs.Int64("seed", 7, "workload seed; 1009 is held out for checking claims")
		seconds  = fs.Float64("seconds", 10, "measurement time per workload")
		jsonPath = fs.String("json", "", "also write the runs as a JSON array to this file")
		storeDir = fs.String("runstore", "", "also append the runs to the run store in this directory")
		trace    boolFlag
	)
	fs.Var(&trace, "trace", "1: run the traced pass and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 0 {
		return fmt.Errorf("-seconds must not be negative")
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		todo = []workload{w}
	}
	opt := options{seed: *seed, sets: inputSets, seconds: *seconds, trace: bool(trace), minUnits: 2 * inputSets, setupReps: 15}
	var reports []*report
	for _, w := range todo {
		r, err := measure(w, opt)
		if err != nil {
			return err
		}
		if err := r.print(stdout); err != nil {
			return err
		}
		reports = append(reports, r)
	}
	return record(reports, *jsonPath, *storeDir)
}
