package aimt

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"aimt/internal/analysis"
	"aimt/internal/arch"
	"aimt/internal/metrics"
	"aimt/internal/nn"
	"aimt/internal/power"
	"aimt/internal/sched"
	"aimt/internal/serve"
	"aimt/internal/sweep"
	"aimt/internal/workload"
)

// sweepParallelism caps the worker pool the experiment drivers hand to
// the sweep engine; 0 means GOMAXPROCS. cmd/aimt-bench's -parallel
// flag lands here.
var sweepParallelism atomic.Int64

// SetSweepParallelism caps the worker pool used by the experiment
// drivers' simulation sweeps. n == 1 forces serial execution; n <= 0
// restores the GOMAXPROCS default. Results are identical at every
// setting — the sweep engine aggregates in job order, not completion
// order.
func SetSweepParallelism(n int) {
	if n < 0 {
		n = 0
	}
	sweepParallelism.Store(int64(n))
}

// SweepParallelism reports the current driver worker cap (0 =
// GOMAXPROCS).
func SweepParallelism() int { return int(sweepParallelism.Load()) }

// runSweep fans the jobs over the configured worker pool and fails on
// the first job error.
func runSweep(jobs []sweep.Job) ([]sweep.Outcome, error) {
	outs := sweep.Run(jobs, sweep.Options{Workers: SweepParallelism()})
	if err := sweep.FirstError(outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// This file contains the drivers that regenerate every table and
// figure of the paper's evaluation (§V). Each FigNData/TableNRows
// function returns structured results; the matching PrintFigN/
// PrintTableN renders them as the rows/series the paper reports.
// cmd/aimt-bench and bench_test.go are thin wrappers over these.

// LayerRatio re-exports analysis.LayerRatio for Fig 5 consumers.
type LayerRatio = analysis.LayerRatio

// Fig5Data returns VGG16's per-layer computation vs memory-prefetch
// latency split (paper Fig 5).
func Fig5Data(cfg Config) ([]LayerRatio, error) {
	cn, err := Compile(VGG16(), cfg, 1)
	if err != nil {
		return nil, err
	}
	return analysis.LatencyRatios(cn), nil
}

// PrintFig5 renders Fig 5.
func PrintFig5(w io.Writer, cfg Config) error {
	rows, err := Fig5Data(cfg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("layer", "compute%", "memory%", "CB cycles", "MB cycles")
	for _, r := range rows {
		t.AddRow(r.Name, metrics.Pct(r.ComputeFraction()), metrics.Pct(1-r.ComputeFraction()),
			fmt.Sprint(r.ComputeCycles), fmt.Sprint(r.MemoryCycles))
	}
	_, err = fmt.Fprintf(w, "Fig 5: computation vs memory-prefetch latency per VGG16 layer\n%s", t)
	return err
}

// MixOutcome is one co-location mix's result under one scheduler.
type MixOutcome struct {
	// Mix is the annotated mix name (with replication factor).
	Mix string
	// Scheduler is the policy name.
	Scheduler string
	// Speedup is the makespan ratio over the FIFO baseline.
	Speedup float64
	// MemUtil and PEUtil are whole-run busy fractions.
	MemUtil, PEUtil float64
	// Splits counts compute-block halts.
	Splits int
}

// entries resolves scheduler names through the registry.
func entries(names ...string) ([]sched.Entry, error) {
	out := make([]sched.Entry, len(names))
	for i, name := range names {
		e, err := sched.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// mixJob is a sweep job running registry scheduler e over a compiled
// mix. Its scheduler label is left empty, so outcomes carry the
// scheduler's own name (e.g. "AI-MT(All)").
func mixJob(cfg Config, label string, mix *workload.Mix, e sched.Entry) sweep.Job {
	return sweep.Job{Mix: label, Cfg: cfg, Nets: mix.Nets,
		New: func() Scheduler { return e.New(cfg, sched.Input{MemHeavy: mix.MemHeavy}) }}
}

// runMixes simulates every paper mix at the given batch under the named
// schedulers and returns outcomes keyed in input order. The runs — one
// FIFO baseline plus one per name, per mix — fan out over the sweep
// engine's worker pool (see SetSweepParallelism).
func runMixes(cfg Config, batch int, names ...string) ([]MixOutcome, error) {
	scheds, err := entries(append([]string{"FIFO"}, names...)...)
	if err != nil {
		return nil, err
	}
	var jobs []sweep.Job
	for _, spec := range PaperMixes() {
		mix, err := BuildMix(cfg, spec, batch)
		if err != nil {
			return nil, err
		}
		for _, e := range scheds {
			jobs = append(jobs, mixJob(cfg, mix.Name, mix, e))
		}
	}
	outs, err := runSweep(jobs)
	if err != nil {
		return nil, err
	}
	stride := len(scheds)
	var out []MixOutcome
	for i := 0; i < len(outs); i += stride {
		base := outs[i].Res
		for _, o := range outs[i+1 : i+stride] {
			out = append(out, MixOutcome{
				Mix:       o.Mix,
				Scheduler: o.Scheduler,
				Speedup:   metrics.Speedup(base, o.Res),
				MemUtil:   o.Res.MemUtilization(),
				PEUtil:    o.Res.PEUtilization(),
				Splits:    o.Res.Splits,
			})
		}
	}
	return out, nil
}

// Fig7Data returns compute and memory-bandwidth utilization under the
// round-robin scheduler for every paper mix (paper Fig 7).
func Fig7Data(cfg Config) ([]MixOutcome, error) {
	return runMixes(cfg, 1, "RR")
}

// PrintFig7 renders Fig 7.
func PrintFig7(w io.Writer, cfg Config) error {
	rows, err := Fig7Data(cfg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("mix", "compute util", "memory BW util")
	for _, r := range rows {
		t.AddRow(r.Mix, metrics.Pct(r.PEUtil), metrics.Pct(r.MemUtil))
	}
	_, err = fmt.Fprintf(w, "Fig 7: utilization under sub-layer round-robin scheduling\n%s", t)
	return err
}

// Fig8Data returns RR, Greedy and SJF speedups over sub-layer FIFO for
// every paper mix (paper Fig 8).
func Fig8Data(cfg Config) ([]MixOutcome, error) {
	return runMixes(cfg, 1, "RR", "Greedy", "SJF")
}

// PrintFig8 renders Fig 8.
func PrintFig8(w io.Writer, cfg Config) error {
	rows, err := Fig8Data(cfg)
	if err != nil {
		return err
	}
	return printSpeedupTable(w, "Fig 8: baseline scheduling mechanisms, speedup over FIFO", rows)
}

// Fig14Data returns the AI-MT ablation — prefetching, +merging,
// +eviction — as speedup over FIFO per mix at batch 1 (paper Fig 14).
func Fig14Data(cfg Config) ([]MixOutcome, error) {
	return runMixes(cfg, 1, "AI-MT(PF)", "AI-MT(PF+Merge)", "AI-MT")
}

// PrintFig14 renders Fig 14.
func PrintFig14(w io.Writer, cfg Config) error {
	rows, err := Fig14Data(cfg)
	if err != nil {
		return err
	}
	return printSpeedupTable(w, "Fig 14: AI-MT speedup over network-serial execution (batch 1)", rows)
}

func printSpeedupTable(w io.Writer, title string, rows []MixOutcome) error {
	scheds := orderedSchedulers(rows)
	byMix := map[string]map[string]float64{}
	var mixes []string
	for _, r := range rows {
		if byMix[r.Mix] == nil {
			byMix[r.Mix] = map[string]float64{}
			mixes = append(mixes, r.Mix)
		}
		byMix[r.Mix][r.Scheduler] = r.Speedup
	}
	t := metrics.NewTable(append([]string{"mix"}, scheds...)...)
	for _, m := range mixes {
		cells := []string{m}
		for _, s := range scheds {
			cells = append(cells, metrics.F(byMix[m][s]))
		}
		t.AddRow(cells...)
	}
	geo := []string{"geomean"}
	for _, s := range scheds {
		var vals []float64
		for _, m := range mixes {
			vals = append(vals, byMix[m][s])
		}
		geo = append(geo, metrics.F(metrics.GeoMean(vals)))
	}
	t.AddRow(geo...)
	_, err := fmt.Fprintf(w, "%s\n%s", title, t)
	return err
}

func orderedSchedulers(rows []MixOutcome) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Scheduler] {
			seen[r.Scheduler] = true
			out = append(out, r.Scheduler)
		}
	}
	return out
}

// BatchPoint is one point of the Fig 15 batch-size sensitivity study.
type BatchPoint struct {
	// Mix is the annotated mix name.
	Mix string
	// Batch is the batch size.
	Batch int
	// MergeSpeedup and AllSpeedup are PF+Merge and full AI-MT speedups
	// over FIFO at this batch.
	MergeSpeedup, AllSpeedup float64
	// Splits counts halts in the full-AI-MT run.
	Splits int
}

// Fig15Batches are the batch sizes swept by Fig 15.
var Fig15Batches = []int{1, 2, 4, 8, 16, 32}

// Fig15Data sweeps batch size for the CNN+GNMT mixes, comparing
// prefetch+merge against the full design with early MB eviction
// (paper Fig 15). The input/output SRAM is assumed large enough for
// the features (paper §V-C), which the simulator models by not
// constraining feature residency.
func Fig15Data(cfg Config, batches []int) ([]BatchPoint, error) {
	if len(batches) == 0 {
		batches = Fig15Batches
	}
	scheds, err := entries("FIFO", "AI-MT(PF+Merge)", "AI-MT")
	if err != nil {
		return nil, err
	}
	var jobs []sweep.Job
	for _, spec := range workload.GNMTMixes() {
		for _, b := range batches {
			mix, err := BuildMix(cfg, spec, b)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s@batch%d", spec.Name, b)
			for _, e := range scheds {
				jobs = append(jobs, mixJob(cfg, label, mix, e))
			}
		}
	}
	outs, err := runSweep(jobs)
	if err != nil {
		return nil, err
	}
	var out []BatchPoint
	i := 0
	for _, spec := range workload.GNMTMixes() {
		for _, b := range batches {
			base, mg, all := outs[i].Res, outs[i+1].Res, outs[i+2].Res
			i += 3
			out = append(out, BatchPoint{
				Mix:          spec.Name,
				Batch:        b,
				MergeSpeedup: metrics.Speedup(base, mg),
				AllSpeedup:   metrics.Speedup(base, all),
				Splits:       all.Splits,
			})
		}
	}
	return out, nil
}

// PrintFig15 renders Fig 15.
func PrintFig15(w io.Writer, cfg Config) error {
	pts, err := Fig15Data(cfg, nil)
	if err != nil {
		return err
	}
	t := metrics.NewTable("mix", "batch", "PF+Merge", "AI-MT (All)", "splits")
	for _, p := range pts {
		t.AddRow(p.Mix, fmt.Sprint(p.Batch), metrics.F(p.MergeSpeedup), metrics.F(p.AllSpeedup), fmt.Sprint(p.Splits))
	}
	_, err = fmt.Fprintf(w, "Fig 15: batch-size sensitivity, speedup over FIFO\n%s", t)
	return err
}

// SRAMPoint is one point of the Fig 16 SRAM-capacity sensitivity study.
type SRAMPoint struct {
	// SRAM is the weight-buffer capacity.
	SRAM Bytes
	// Speedups keys scheduler name to speedup over FIFO at this size.
	Speedups map[string]float64
}

// Fig16Sizes are the weight-SRAM capacities swept by Fig 16.
var Fig16Sizes = []Bytes{256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 16 * MiB, 64 * MiB, 256 * MiB, 1 * GiB, 4 * GiB}

// Fig16Data sweeps the weight-SRAM capacity for the combined
// CNNs+GNMT mix executed iteratively (the continuous-arrival cloud
// scenario), comparing the naive compute-first order and the greedy
// mechanism — both with capacity-bounded prefetching — against full
// AI-MT (paper Fig 16). Speedups are over FIFO at the same capacity.
func Fig16Data(cfg Config, sizes []Bytes) ([]SRAMPoint, error) {
	if len(sizes) == 0 {
		sizes = Fig16Sizes
	}
	spec := PaperMixes()[3] // RN34+RN50+MN+GNMT
	scheds, err := entries("FIFO", "ComputeFirst+PF", "Greedy+PF", "AI-MT")
	if err != nil {
		return nil, err
	}
	var jobs []sweep.Job
	for _, sz := range sizes {
		c := cfg
		c.WeightSRAM = sz
		if err := c.Validate(); err != nil {
			return nil, err
		}
		mix, err := workload.Build(c, spec, workload.BuildOptions{Batch: 8, Iterations: 2})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%s@%s", mix.Name, arch.FormatBytes(sz))
		for _, e := range scheds {
			j := mixJob(c, label, mix, e)
			j.Scheduler = e.Name
			jobs = append(jobs, j)
		}
	}
	outs, err := runSweep(jobs)
	if err != nil {
		return nil, err
	}
	var out []SRAMPoint
	for i, sz := range sizes {
		o := outs[i*len(scheds) : (i+1)*len(scheds)]
		pt := SRAMPoint{SRAM: sz, Speedups: map[string]float64{}}
		for _, r := range o[1:] {
			pt.Speedups[r.Scheduler] = metrics.Speedup(o[0].Res, r.Res)
		}
		out = append(out, pt)
	}
	return out, nil
}

// PrintFig16 renders Fig 16.
func PrintFig16(w io.Writer, cfg Config) error {
	pts, err := Fig16Data(cfg, nil)
	if err != nil {
		return err
	}
	t := metrics.NewTable("weight SRAM", "ComputeFirst+PF", "Greedy+PF", "AI-MT")
	for _, p := range pts {
		t.AddRow(arch.FormatBytes(p.SRAM),
			metrics.F(p.Speedups["ComputeFirst+PF"]),
			metrics.F(p.Speedups["Greedy+PF"]),
			metrics.F(p.Speedups["AI-MT"]))
	}
	_, err = fmt.Fprintf(w, "Fig 16: SRAM-capacity sensitivity, speedup over FIFO (batch 8, iterated)\n%s", t)
	return err
}

// Fig10Data returns, per network, the per-layer prefetch SRAM demand
// estimate (paper Fig 10).
func Fig10Data(cfg Config) (map[string][]analysis.PrefetchDemand, error) {
	out := map[string][]analysis.PrefetchDemand{}
	for name, net := range nn.Zoo() {
		cn, err := Compile(net, cfg, 1)
		if err != nil {
			return nil, err
		}
		out[name] = analysis.PrefetchDemands(cn, cfg)
	}
	return out, nil
}

// PrintFig10 renders Fig 10 (per-network maxima plus the largest
// individual layers).
func PrintFig10(w io.Writer, cfg Config) error {
	data, err := Fig10Data(cfg)
	if err != nil {
		return err
	}
	var names []string
	for n := range data {
		names = append(names, n)
	}
	sort.Strings(names)
	t := metrics.NewTable("network", "max prefetch SRAM demand", "layer at max")
	for _, n := range names {
		d := data[n]
		maxI := 0
		for i := range d {
			if d[i].Bytes > d[maxI].Bytes {
				maxI = i
			}
		}
		t.AddRow(n, arch.FormatBytes(d[maxI].Bytes), d[maxI].Name)
	}
	_, err = fmt.Fprintf(w, "Fig 10: required prefetch SRAM buffer size (batch 1)\n%s", t)
	return err
}

// ServingData runs a reproducible open-loop request stream (equal
// shares of RN34, RN50, MN and GNMT requests, exponential
// inter-arrival) under FIFO, PREMA and AI-MT — the cloud scenario the
// paper's introduction motivates multi-tenancy with — and returns one
// report per scheduler. Latencies stream into a bounded-memory
// histogram rather than a per-request slice.
func ServingData(cfg Config) ([]*ServeReport, error) {
	var classes []ServeClass
	for _, name := range []string{"RN34", "RN50", "MN", "GNMT"} {
		net, err := nn.ByName(name)
		if err != nil {
			return nil, err
		}
		classes = append(classes, ServeClass{Net: net})
	}
	var specs []SchedulerSpec
	for _, name := range []string{"FIFO", "PREMA", "AI-MT"} {
		spec, err := serve.SpecByName(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	points, err := serve.LoadCurve(cfg, classes, specs, serve.CurveOptions{
		Stream:  serve.StreamOptions{Requests: 24, Seed: 7},
		Gaps:    []Cycles{50_000},
		Workers: SweepParallelism(),
	})
	if err != nil {
		return nil, err
	}
	return points[0].Reports, nil
}

// PrintServing renders the open-loop serving comparison.
func PrintServing(w io.Writer, cfg Config) error {
	pts, err := ServingData(cfg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("scheduler", "makespan", "p50 latency", "p99 latency", "PE util")
	for _, p := range pts {
		t.AddRow(p.Scheduler, fmt.Sprint(p.Makespan), fmt.Sprint(p.P50), fmt.Sprint(p.P99), metrics.Pct(p.PEUtil))
	}
	_, err = fmt.Fprintf(w, "Serving (extension): open-loop mixed request stream, 24 requests\n%s", t)
	return err
}

// LoadCurveData sweeps offered load over the default mixed CNN/RNN
// serving stream (Poisson arrivals, per-request deadlines) under
// FIFO, PREMA, AI-MT and EDF, from light traffic to past saturation.
// The request count is kept modest so the experiment regenerates
// quickly; see cmd/aimt-serve for production-scale sweeps.
func LoadCurveData(cfg Config) ([]ServeCurvePoint, error) {
	return ServeLoadCurve(cfg, DefaultServingClasses(), ServeStandardSchedulers(),
		ServeCurveOptions{
			Stream:  ServeStreamOptions{Requests: 300, Seed: 7},
			Workers: SweepParallelism(),
		})
}

// PrintLoadCurve renders the serving load sweep.
func PrintLoadCurve(w io.Writer, cfg Config) error {
	points, err := LoadCurveData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Load curve (extension): mixed CNN/RNN serving, 300 requests per point\n"); err != nil {
		return err
	}
	return serve.PrintCurve(w, points)
}

// ClusterScaleChips are the chip counts swept by the clusterscale
// experiment.
var ClusterScaleChips = []int{1, 2, 4, 8}

// ClusterScaleLoad is the clusterscale experiment's fixed offered load
// in single-chip capacities: 2.5 means the stream demands two and a
// half chips' worth of service, so 1- and 2-chip clusters saturate
// while 4 and 8 chips have headroom.
const ClusterScaleLoad = 2.5

// ClusterScalePoint is one (policy, chip count) cell of the
// clusterscale experiment.
type ClusterScalePoint struct {
	// Policy is the routing policy name.
	Policy string
	// Chips is the cluster size.
	Chips int
	// Agg is the aggregate report over every request.
	Agg *ServeReport
	// Imbalance is the PE-load imbalance across chips.
	Imbalance float64
}

// ClusterScaleData holds offered load fixed at ClusterScaleLoad
// single-chip capacities and sweeps the cluster size under every
// routing policy (AI-MT on every chip): aggregate throughput must grow
// with the chip count while tail latency and SLA misses collapse once
// the cluster absorbs the load. The same request sequence (same seed)
// is routed at every cell, so cells differ only in cluster shape and
// policy.
func ClusterScaleData(cfg Config) ([]ClusterScalePoint, error) {
	classes := DefaultServingClasses()
	gaps, err := serve.Gaps(cfg, classes, ClusterScaleLoad)
	if err != nil {
		return nil, err
	}
	stream, err := NewServeStream(cfg, classes, ServeStreamOptions{Requests: 320, MeanGap: gaps[0], Seed: 7})
	if err != nil {
		return nil, err
	}
	spec, err := serve.SpecByName("AI-MT")
	if err != nil {
		return nil, err
	}
	var out []ClusterScalePoint
	for _, pol := range ClusterPolicies() {
		for _, chips := range ClusterScaleChips {
			res, err := ClusterServe(cfg, stream, spec, pol.New(), ClusterOptions{
				Chips:   chips,
				Workers: SweepParallelism(),
			})
			if err != nil {
				return nil, fmt.Errorf("clusterscale %s x%d: %w", pol.Name, chips, err)
			}
			out = append(out, ClusterScalePoint{
				Policy:    pol.Name,
				Chips:     chips,
				Agg:       res.Agg,
				Imbalance: res.Imbalance,
			})
		}
	}
	return out, nil
}

// PrintClusterScale renders the clusterscale experiment: one table per
// routing policy, chip count ascending.
func PrintClusterScale(w io.Writer, cfg Config) error {
	pts, err := ClusterScaleData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Cluster scaling (extension): %d requests at %.1f single-chip loads, AI-MT per chip\n",
		320, ClusterScaleLoad); err != nil {
		return err
	}
	var cur string
	var t *metrics.Table
	flush := func() error {
		if t == nil {
			return nil
		}
		_, err := fmt.Fprintf(w, "policy %s\n%s\n", cur, t)
		return err
	}
	for _, p := range pts {
		if p.Policy != cur {
			if err := flush(); err != nil {
				return err
			}
			cur = p.Policy
			t = metrics.NewTable("chips", "p50", "p99", "p99.9", "miss rate", "req/Mcyc", "PE util", "imbalance")
		}
		t.AddRow(fmt.Sprint(p.Chips),
			fmt.Sprint(p.Agg.P50), fmt.Sprint(p.Agg.P99), fmt.Sprint(p.Agg.P999),
			metrics.Pct(p.Agg.MissRate), metrics.F(p.Agg.Throughput),
			metrics.Pct(p.Agg.PEUtil), metrics.F(p.Imbalance))
	}
	return flush()
}

// OverloadLoads are the offered loads swept by the overloadcurve
// experiment, in full-cluster capacities: 5.0 demands five times what
// the whole cluster can serve.
var OverloadLoads = []float64{0.8, 2.0, 3.5, 5.0}

// OverloadChips is the overloadcurve cluster size ceiling the
// autoscaler may grow into.
const OverloadChips = 2

// OverloadClasses returns the two-band serving mix of the overload
// experiments: the CNN class is the premium band (priority 1, never
// shed by admission control) and the RNN class is the batch band
// (priority 0, sheddable). Weights keep premium a minority of the
// offered work so that even at 5x saturation its demand fits within
// the cluster once batch is shed.
func OverloadClasses() []ServeClass {
	classes := DefaultServingClasses()
	classes[0].Priority = 1
	classes[0].Weight = 1
	classes[1].Priority = 0
	classes[1].Weight = 4
	return classes
}

// OverloadPoint is one load point of the overloadcurve experiment.
type OverloadPoint struct {
	// Load is the offered load in full-cluster capacities.
	Load float64
	// Res is the controlled cluster serving outcome at this load.
	Res *ClusterResult
}

// OverloadCurveData sweeps offered load from comfortable to 5x
// saturation through the full control plane — priority preemption on
// every chip, SLO-aware admission at the front door, elastic
// autoscaling between 1 and OverloadChips chips — and returns one
// point per load. Graceful degradation means the premium band's SLA
// miss rate stays flat across the sweep while the batch band is shed
// in growing, predictable proportion.
func OverloadCurveData(cfg Config) ([]OverloadPoint, error) {
	classes := OverloadClasses()
	loads := make([]float64, len(OverloadLoads))
	for i, load := range OverloadLoads {
		loads[i] = load * float64(OverloadChips)
	}
	gaps, err := serve.Gaps(cfg, classes, loads...)
	if err != nil {
		return nil, err
	}
	pol, err := ClusterPolicyByName("least-work")
	if err != nil {
		return nil, err
	}
	spec, err := serve.SpecByName("AI-MT+Prio")
	if err != nil {
		return nil, err
	}
	var out []OverloadPoint
	for i, load := range OverloadLoads {
		stream, err := NewServeStream(cfg, classes, ServeStreamOptions{Requests: 300, MeanGap: gaps[i], Seed: 7})
		if err != nil {
			return nil, err
		}
		res, err := ClusterServe(cfg, stream, spec, pol.New(), ClusterOptions{
			Chips:   OverloadChips,
			Workers: SweepParallelism(),
			Control: ClusterControl{Admission: true, Autoscale: true},
		})
		if err != nil {
			return nil, fmt.Errorf("overloadcurve load %.1f: %w", load, err)
		}
		out = append(out, OverloadPoint{Load: load, Res: res})
	}
	return out, nil
}

// PrintOverloadCurve renders the overloadcurve experiment: one
// per-class degradation table per load point, plus the control-plane
// event counts.
func PrintOverloadCurve(w io.Writer, cfg Config) error {
	pts, err := OverloadCurveData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Overload degradation (extension): admission + priorities + autoscale, %d requests per point, up to %d chips\n",
		300, OverloadChips); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "load %.1fx: shed %d of %d, scale-ups %d, scale-downs %d, active chips %d\n",
			p.Load, p.Res.Agg.Shed, p.Res.Agg.Requests, p.Res.ScaleUps, p.Res.ScaleDowns, p.Res.ActiveChips); err != nil {
			return err
		}
		t := metrics.NewTable("class", "prio", "offered", "shed", "served", "miss rate", "p99")
		for i, cs := range p.Res.Agg.PerClass {
			t.AddRow(cs.Class, fmt.Sprint(OverloadClasses()[i].Priority),
				fmt.Sprint(cs.Requests), fmt.Sprint(cs.Shed),
				fmt.Sprint(cs.Requests-cs.Shed),
				metrics.Pct(cs.MissRate), fmt.Sprint(cs.P99))
		}
		if _, err := fmt.Fprintf(w, "%s\n", t); err != nil {
			return err
		}
	}
	return nil
}

// TransformerMixData sweeps offered load over a mixed transformer/CNN
// serving stream — each transformer request is one prefill burst plus
// eight chained decode iterations with per-token deadlines — under
// FIFO, PREMA, AI-MT and EDF. The phased points exercise the MB/CB
// co-execution opportunity the paper targets: prefill entries are
// compute-bound while decode entries are memory-bound, so schedulers
// that overlap the two phases across requests win on both tail
// latency and tokens per megacycle.
func TransformerMixData(cfg Config) ([]ServeCurvePoint, error) {
	return ServeLoadCurve(cfg, TransformerServingClasses(), ServeStandardSchedulers(),
		ServeCurveOptions{
			Stream:  ServeStreamOptions{Requests: 120, Seed: 7},
			Workers: SweepParallelism(),
		})
}

// PrintTransformerMix renders the transformer/CNN mix load sweep with
// the per-phase latency and token-throughput columns.
func PrintTransformerMix(w io.Writer, cfg Config) error {
	points, err := TransformerMixData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Transformer mix (extension): chat (prefill + 8 decode tokens) vs CNN, 120 requests per point\n"); err != nil {
		return err
	}
	return serve.PrintCurve(w, points)
}

// DecodeBatchSizes are the decode batch sizes swept by the decodebatch
// experiment.
var DecodeBatchSizes = []int{1, 4, 16}

// DecodeBatchLoad is the decodebatch experiment's fixed offered load in
// single-chip capacities.
const DecodeBatchLoad = 0.7

// DecodeBatchPoint is one batch-size point of the decodebatch
// experiment.
type DecodeBatchPoint struct {
	// Batch is the per-request batch size (concurrent sequences whose
	// decode steps share one weight fetch).
	Batch int
	// Rep is the AI-MT serving report at this batch size.
	Rep *ServeReport
}

// DecodeBatchCurveData holds offered load fixed at DecodeBatchLoad and
// sweeps the decode batch size under AI-MT: batching amortizes each
// decode iteration's KV-cache and weight traffic over more tokens, so
// tokens per megacycle must rise with the batch size while the
// per-token deadline ladder keeps latency honest.
func DecodeBatchCurveData(cfg Config) ([]DecodeBatchPoint, error) {
	spec, err := serve.SpecByName("AI-MT")
	if err != nil {
		return nil, err
	}
	var out []DecodeBatchPoint
	for _, batch := range DecodeBatchSizes {
		classes := []ServeClass{TransformerChatServeClass(8, batch)}
		gaps, err := serve.Gaps(cfg, classes, DecodeBatchLoad)
		if err != nil {
			return nil, err
		}
		stream, err := NewServeStream(cfg, classes, ServeStreamOptions{Requests: 96, MeanGap: gaps[0], Seed: 7})
		if err != nil {
			return nil, err
		}
		rep, err := ServeRun(cfg, stream, spec.New(cfg, stream), RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("decodebatch batch %d: %w", batch, err)
		}
		rep.Scheduler = spec.Name
		out = append(out, DecodeBatchPoint{Batch: batch, Rep: rep})
	}
	return out, nil
}

// PrintDecodeBatch renders the decode-batching curve: tokens per
// megacycle (and per second per chip at the configured frequency)
// against batch size, with the per-phase tails.
func PrintDecodeBatch(w io.Writer, cfg Config) error {
	pts, err := DecodeBatchCurveData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Decode batching (extension): chat class, 8 decode tokens/request, AI-MT, load %.1f, 96 requests\n",
		DecodeBatchLoad); err != nil {
		return err
	}
	t := metrics.NewTable("batch", "tok/Mcyc", "tok/s/chip", "prefill p99", "decode p99", "decode miss", "PE util")
	for _, p := range pts {
		pre, dec := p.Rep.PerPhase[0], p.Rep.PerPhase[1]
		tokPerSec := p.Rep.TokensPerMcycle * float64(cfg.FreqHz) / 1e6
		t.AddRow(fmt.Sprint(p.Batch),
			metrics.F(p.Rep.TokensPerMcycle), metrics.F(tokPerSec),
			fmt.Sprint(pre.P99), fmt.Sprint(dec.P99),
			metrics.Pct(dec.MissRate), metrics.Pct(p.Rep.PEUtil))
	}
	_, err = fmt.Fprintf(w, "%s", t)
	return err
}

// LookaheadHorizons are the speculation horizons swept by the
// lookahead experiment, in cycles.
var LookaheadHorizons = []Cycles{1024, 4096, 16384}

// LookaheadBatches are the batch sizes swept by the lookahead
// experiment.
var LookaheadBatches = []int{1, 4}

// LookaheadPoint is one (mix, batch, horizon) cell of the lookahead
// experiment.
type LookaheadPoint struct {
	// Mix is the mix name annotated with the batch size.
	Mix string
	// Batch is the per-network batch size.
	Batch int
	// Horizon is the speculation depth in cycles.
	Horizon Cycles
	// AIMTMakespan and LookaheadMakespan are the exact completion
	// cycles under plain AI-MT and under Lookahead(AI-MT).
	AIMTMakespan, LookaheadMakespan Cycles
	// Speedup is AIMTMakespan / LookaheadMakespan.
	Speedup float64
}

// lookaheadMixSpecs returns the contended paper mixes — several
// compute-intensive networks racing one memory-intensive network for
// block SRAM. These are the mixes where AI-MT's static issue
// heuristics face genuinely ambiguous fetch decisions, so forward
// simulation has room to improve on them; in the two-network mixes the
// contested decisions are rare and short horizons can even mislead.
func lookaheadMixSpecs() []workload.Spec {
	var out []workload.Spec
	for _, s := range PaperMixes() {
		if len(s.Compute) > 1 {
			out = append(out, s)
		}
	}
	return out
}

// LookaheadData runs the contended paper mixes under plain AI-MT and
// under Lookahead(AI-MT) at every horizon, returning the exact
// makespans. Lookahead commits a speculative decision only when the
// forward simulation shows a strict progress win and otherwise defers
// to the inner policy, so on these mixes its makespan is never worse
// than AI-MT's and strictly better where speculation pays.
func LookaheadData(cfg Config) ([]LookaheadPoint, error) {
	aimt, err := sched.ByName("AI-MT")
	if err != nil {
		return nil, err
	}
	var jobs []sweep.Job
	for _, batch := range LookaheadBatches {
		for _, spec := range lookaheadMixSpecs() {
			mix, err := BuildMix(cfg, spec, batch)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s@batch%d", mix.Name, batch)
			jobs = append(jobs, mixJob(cfg, label, mix, aimt))
			for _, h := range LookaheadHorizons {
				jobs = append(jobs, sweep.Job{Mix: label, Cfg: cfg, Nets: mix.Nets,
					New: func() Scheduler { return sched.NewLookahead(aimt.New(cfg, sched.Input{}), h) }})
			}
		}
	}
	outs, err := runSweep(jobs)
	if err != nil {
		return nil, err
	}
	stride := 1 + len(LookaheadHorizons)
	var out []LookaheadPoint
	i := 0
	for _, batch := range LookaheadBatches {
		for range lookaheadMixSpecs() {
			base := outs[i].Res
			for j, h := range LookaheadHorizons {
				o := outs[i+1+j]
				out = append(out, LookaheadPoint{
					Mix:               o.Mix,
					Batch:             batch,
					Horizon:           h,
					AIMTMakespan:      base.Makespan,
					LookaheadMakespan: o.Res.Makespan,
					Speedup:           metrics.Speedup(base, o.Res),
				})
			}
			i += stride
		}
	}
	return out, nil
}

// PrintLookahead renders the lookahead experiment: exact makespans so
// the never-worse property is visible cycle by cycle.
func PrintLookahead(w io.Writer, cfg Config) error {
	pts, err := LookaheadData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Speculative lookahead (extension): forward-simulated contested fetches vs AI-MT, contended mixes\n"); err != nil {
		return err
	}
	t := metrics.NewTable("mix", "horizon", "AI-MT makespan", "Lookahead makespan", "speedup")
	for _, p := range pts {
		t.AddRow(p.Mix, fmt.Sprint(p.Horizon),
			fmt.Sprint(p.AIMTMakespan), fmt.Sprint(p.LookaheadMakespan),
			metrics.F(p.Speedup))
	}
	_, err = fmt.Fprintf(w, "%s", t)
	return err
}

// SpatialData returns, per zoo network, the mean spatial MAC
// utilization of the weight-stationary mapping — the §VI-B headroom a
// spatial co-execution extension could reclaim.
func SpatialData(cfg Config) (map[string]float64, error) {
	out := map[string]float64{}
	for name, net := range nn.Zoo() {
		out[name] = analysis.MeanSpatialUtil(analysis.SpatialUtilization(net, cfg))
	}
	return out, nil
}

// PrintSpatial renders the spatial-utilization analysis.
func PrintSpatial(w io.Writer, cfg Config) error {
	data, err := SpatialData(cfg)
	if err != nil {
		return err
	}
	var names []string
	for n := range data {
		names = append(names, n)
	}
	sort.Strings(names)
	t := metrics.NewTable("network", "mean spatial MAC utilization")
	for _, n := range names {
		t.AddRow(n, metrics.Pct(data[n]))
	}
	_, err = fmt.Fprintf(w, "Spatial utilization (extension, paper SVI-B headroom)\n%s", t)
	return err
}

// PrintTable1 renders the hardware parameters (paper Table I).
func PrintTable1(w io.Writer, cfg Config) error {
	t := metrics.NewTable("parameter", "value")
	t.AddRow("Processing Element Dimension", fmt.Sprintf("%dx%d", cfg.PEDim, cfg.PEDim))
	t.AddRow("# Processing Element Array", fmt.Sprint(cfg.NumArrays))
	t.AddRow("Frequency", fmt.Sprintf("%.0f GHz", float64(cfg.FreqHz)/1e9))
	t.AddRow("Memory Bandwidth", fmt.Sprintf("%.0f GB/s", float64(cfg.MemBandwidth)/1e9))
	t.AddRow("On-Chip SRAM Size (Input/Output)", arch.FormatBytes(cfg.IOSRAM))
	t.AddRow("On-Chip SRAM Size (Weight)", arch.FormatBytes(cfg.WeightSRAM))
	_, err := fmt.Fprintf(w, "Table I: hardware and architecture parameters\n%s", t)
	return err
}

// Table2Row is one workload row of the paper's Table II.
type Table2Row struct {
	// Name is the network's short name.
	Name string
	// FC and Conv are the weight-layer counts (depthwise convolutions
	// count as CONV, as in the paper).
	FC, Conv int
	// Weights is the total weight-element count.
	Weights int64
}

// Table2Rows returns the workload configurations (paper Table II).
func Table2Rows() []Table2Row {
	var rows []Table2Row
	for _, name := range []string{"RN34", "RN50", "VGG16", "MN", "GNMT"} {
		net, err := nn.ByName(name)
		if err != nil {
			panic(err) // zoo names are static
		}
		c := net.CountByType()
		rows = append(rows, Table2Row{
			Name:    net.Name,
			FC:      c[nn.FC],
			Conv:    c[nn.Conv] + c[nn.DWConv],
			Weights: net.TotalWeights(),
		})
	}
	return rows
}

// PrintTable2 renders Table II.
func PrintTable2(w io.Writer) error {
	t := metrics.NewTable("name", "FC layers", "CONV layers", "weights", "batch")
	for _, r := range Table2Rows() {
		t.AddRow(r.Name, fmt.Sprint(r.FC), fmt.Sprint(r.Conv), fmt.Sprint(r.Weights), "1-32")
	}
	_, err := fmt.Fprintf(w, "Table II: neural network workloads\n%s", t)
	return err
}

// Table3Rows returns the power/area estimates for the on-chip memory
// blocks (paper Table III) assuming the given number of co-resident
// networks (the paper uses five).
func Table3Rows(cfg Config, networks int) []power.Row {
	return power.Table3(cfg, networks)
}

// PrintTable3 renders Table III.
func PrintTable3(w io.Writer, cfg Config) error {
	rows := Table3Rows(cfg, 5)
	if _, err := fmt.Fprintln(w, "Table III: power and area of on-chip memory blocks (CACTI-calibrated)"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, r.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "AI-MT structure power overhead: %s of on-chip memory total\n",
		metrics.Pct(power.OverheadFraction(rows)))
	return err
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the short handle, e.g. "fig14".
	ID string
	// Title describes the experiment.
	Title string
	// Run regenerates the experiment, writing its rows to w.
	Run func(w io.Writer, cfg Config) error
}

// Experiments returns every regenerable table and figure, in paper
// order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Hardware and architecture parameters", Run: func(w io.Writer, cfg Config) error { return PrintTable1(w, cfg) }},
		{ID: "table2", Title: "Neural network workloads", Run: func(w io.Writer, _ Config) error { return PrintTable2(w) }},
		{ID: "fig5", Title: "VGG16 compute vs memory latency per layer", Run: PrintFig5},
		{ID: "fig7", Title: "Utilization under round-robin scheduling", Run: PrintFig7},
		{ID: "fig8", Title: "Baseline scheduling speedups", Run: PrintFig8},
		{ID: "fig10", Title: "Required prefetch SRAM per layer", Run: PrintFig10},
		{ID: "fig14", Title: "AI-MT speedup ablation", Run: PrintFig14},
		{ID: "fig15", Title: "Batch-size sensitivity", Run: PrintFig15},
		{ID: "fig16", Title: "SRAM-capacity sensitivity", Run: PrintFig16},
		{ID: "table3", Title: "Power and area overheads", Run: PrintTable3},
		{ID: "serving", Title: "Open-loop serving latency (extension)", Run: PrintServing},
		{ID: "loadcurve", Title: "Serving load sweep with SLA tracking (extension)", Run: PrintLoadCurve},
		{ID: "clusterscale", Title: "Cluster scaling: throughput and tail latency vs chip count (extension)", Run: PrintClusterScale},
		{ID: "overloadcurve", Title: "Overload degradation: admission, priorities and autoscaling under saturation (extension)", Run: PrintOverloadCurve},
		{ID: "transformermix", Title: "Transformer/CNN mix: phase-aware serving load sweep (extension)", Run: PrintTransformerMix},
		{ID: "decodebatch", Title: "Decode batching: tokens per megacycle vs batch size (extension)", Run: PrintDecodeBatch},
		{ID: "lookahead", Title: "Speculative lookahead: forward-simulated contested fetches vs AI-MT (extension)", Run: PrintLookahead},
		{ID: "spatial", Title: "Spatial PE utilization headroom (extension)", Run: PrintSpatial},
	}
}

// IdealBound returns max(total CB, total MB) cycles for a set of
// compiled networks — the makespan lower bound any schedule must obey,
// used in reports and tests.
func IdealBound(nets []*Compiled) Cycles {
	var cb, mb Cycles
	for _, cn := range nets {
		s := cn.Stats()
		cb += s.CBCycles
		mb += s.MBCycles
	}
	if mb > cb {
		return mb
	}
	return cb
}
