package aimt

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"aimt/internal/analysis"
	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/metrics"
	"aimt/internal/nn"
	"aimt/internal/power"
	"aimt/internal/sched"
	"aimt/internal/serve"
	"aimt/internal/sweep"
	"aimt/internal/workload"
)

// This file contains the drivers that regenerate every table and
// figure of the paper's evaluation (§V) and of the extensions, one
// Experiment each. The simulated figures — Figs 7, 8, 14, 15 and 16
// and the lookahead extension — share one shape: compiled mixes at the
// points of an axis, each run under a few schedulers. Each is a grid
// (which rows, which columns) that runGrid simulates as one sweep, plus
// a printer that walks the grid in order.

// parallelism caps the worker pool the experiment drivers hand to the
// sweep engine; 0 means GOMAXPROCS. cmd/aimt-bench's -parallel flag
// lands here.
var parallelism atomic.Int64

// SetSweepParallelism caps the worker pool used by the experiment
// drivers' simulation sweeps. n == 1 forces serial execution; n <= 0
// restores the GOMAXPROCS default. Results are identical at every
// setting — the sweep engine aggregates in job order, not completion
// order.
func SetSweepParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// sweepParallelism reports the current driver worker cap (0 =
// GOMAXPROCS).
func sweepParallelism() int { return int(parallelism.Load()) }

// gridRow is one compiled mix at one point of a figure's axis.
type gridRow struct {
	// label names the row in outcomes and error messages.
	label string
	cfg   Config
	mix   *Mix
}

// newRow compiles spec on cfg into a grid row labelled by the
// annotated mix name plus suffix.
func newRow(cfg Config, spec MixSpec, opts workload.BuildOptions, suffix string) (gridRow, error) {
	mix, err := workload.Build(cfg, spec, opts)
	if err != nil {
		return gridRow{}, err
	}
	return gridRow{label: mix.Name + suffix, cfg: cfg, mix: mix}, nil
}

// gridCol is one scheduler column of a figure grid.
type gridCol struct {
	// label names the column in outcomes; "" takes the scheduler's own
	// Name (e.g. "AI-MT(All)").
	label string
	// new builds a fresh scheduler for one row's run.
	new func(cfg Config, mix *Mix) Scheduler
}

// schedCols returns one unlabelled column per registered scheduler
// name; each run's scheduler reads its row's memory-intensive flags.
func schedCols(names ...string) ([]gridCol, error) {
	cols := make([]gridCol, len(names))
	for i, name := range names {
		e, err := sched.ByName(name)
		if err != nil {
			return nil, err
		}
		cols[i].new = func(cfg Config, mix *Mix) Scheduler {
			return e.New(cfg, sched.Input{MemHeavy: mix.MemHeavy})
		}
	}
	return cols, nil
}

// figGrid is a figure's rows and their outcomes: out[row][col].
type figGrid struct {
	rows []gridRow
	out  [][]sweep.Outcome
}

// runGrid simulates every row under every column as one sweep over the
// configured worker pool (see SetSweepParallelism) and fails on the
// first run error.
func runGrid(rows []gridRow, cols []gridCol) (figGrid, error) {
	jobs := make([]sweep.Job, 0, len(rows)*len(cols))
	for _, r := range rows {
		for _, c := range cols {
			jobs = append(jobs, sweep.Job{Mix: r.label, Scheduler: c.label, Cfg: r.cfg, Nets: r.mix.Nets,
				New: func() Scheduler { return c.new(r.cfg, r.mix) }})
		}
	}
	outs := sweep.Run(jobs, sweep.Options{Workers: sweepParallelism()})
	if err := sweep.FirstError(outs); err != nil {
		return figGrid{}, err
	}
	g := figGrid{rows: rows, out: make([][]sweep.Outcome, len(rows))}
	for i := range rows {
		g.out[i] = outs[i*len(cols) : (i+1)*len(cols)]
	}
	return g, nil
}

// speedup is cell (r, c)'s makespan speedup over its row's first
// column, the figure's baseline.
func (g figGrid) speedup(r, c int) float64 {
	return metrics.Speedup(g.out[r][0].Res, g.out[r][c].Res)
}

// fig5Data returns VGG16's per-layer computation vs memory-prefetch
// latency split (paper Fig 5).
func fig5Data(cfg Config) ([]analysis.LayerRatio, error) {
	cn, err := Compile(VGG16(), cfg, 1)
	if err != nil {
		return nil, err
	}
	return analysis.LatencyRatios(cn), nil
}

// printFig5 renders Fig 5.
func printFig5(w io.Writer, cfg Config) error {
	rows, err := fig5Data(cfg)
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

// geomean is column c's geometric-mean speedup over the rows.
func (g figGrid) geomean(c int) float64 {
	vals := make([]float64, len(g.rows))
	for r := range g.rows {
		vals[r] = g.speedup(r, c)
	}
	return metrics.GeoMean(vals)
}

// paperMixGrid runs every paper mix at batch 1 under the named
// schedulers.
func paperMixGrid(cfg Config, scheds ...string) (figGrid, error) {
	cols, err := schedCols(scheds...)
	if err != nil {
		return figGrid{}, err
	}
	var rows []gridRow
	for _, spec := range PaperMixes() {
		row, err := newRow(cfg, spec, workload.BuildOptions{Batch: 1}, "")
		if err != nil {
			return figGrid{}, err
		}
		rows = append(rows, row)
	}
	return runGrid(rows, cols)
}

// fig7Grid runs every paper mix under round-robin (paper Fig 7).
func fig7Grid(cfg Config) (figGrid, error) { return paperMixGrid(cfg, "RR") }

// printFig7 renders Fig 7: compute and memory-bandwidth utilization
// under round-robin.
func printFig7(w io.Writer, cfg Config) error {
	g, err := fig7Grid(cfg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("mix", "compute util", "memory BW util")
	for r, row := range g.rows {
		res := g.out[r][0].Res
		t.AddRow(row.label, metrics.Pct(res.PEUtilization()), metrics.Pct(res.MemUtilization()))
	}
	_, err = fmt.Fprintf(w, "Fig 7: utilization under sub-layer round-robin scheduling\n%s", t)
	return err
}

// fig8Grid runs every paper mix under FIFO and the RR, Greedy and SJF
// baselines (paper Fig 8).
func fig8Grid(cfg Config) (figGrid, error) {
	return paperMixGrid(cfg, "FIFO", "RR", "Greedy", "SJF")
}

// fig14Grid runs the AI-MT ablation — prefetching, +merging, +eviction
// — against FIFO on every paper mix at batch 1 (paper Fig 14).
func fig14Grid(cfg Config) (figGrid, error) {
	return paperMixGrid(cfg, "FIFO", "AI-MT(PF)", "AI-MT(PF+Merge)", "AI-MT")
}

// speedupFigure renders a mix grid under title as each mix's speedups
// over FIFO plus a geomean row.
func speedupFigure(title string, grid func(Config) (figGrid, error)) func(io.Writer, Config) error {
	return func(w io.Writer, cfg Config) error {
		g, err := grid(cfg)
		if err != nil {
			return err
		}
		t := speedupTable(g, "mix", func(r gridRow) string { return r.label })
		geo := []string{"geomean"}
		for c := 1; c < len(g.out[0]); c++ {
			geo = append(geo, metrics.F(g.geomean(c)))
		}
		t.AddRow(geo...)
		_, err = fmt.Fprintf(w, "%s\n%s", title, t)
		return err
	}
}

// speedupTable renders each row's speedups over its baseline, one
// column per scheduler after the first, the row keyed by key under the
// keyHead column.
func speedupTable(g figGrid, keyHead string, key func(gridRow) string) *metrics.Table {
	head := []string{keyHead}
	for _, o := range g.out[0][1:] {
		head = append(head, o.Scheduler)
	}
	t := metrics.NewTable(head...)
	for r, row := range g.rows {
		cells := []string{key(row)}
		for c := 1; c < len(g.out[r]); c++ {
			cells = append(cells, metrics.F(g.speedup(r, c)))
		}
		t.AddRow(cells...)
	}
	return t
}

// fig15Batches are the batch sizes swept by Fig 15.
var fig15Batches = []int{1, 2, 4, 8, 16, 32}

// fig15Grid runs the CNN+GNMT mixes at each batch size under FIFO,
// prefetch+merge and the full design with early MB eviction (paper
// Fig 15). Rows run mix-major: every batch of the first mix, then the
// next mix. The input/output SRAM is assumed large enough for the
// features (paper §V-C), which the simulator models by not
// constraining feature residency.
func fig15Grid(cfg Config, batches []int) (figGrid, error) {
	cols, err := schedCols("FIFO", "AI-MT(PF+Merge)", "AI-MT")
	if err != nil {
		return figGrid{}, err
	}
	var rows []gridRow
	for _, spec := range workload.GNMTMixes() {
		for _, b := range batches {
			row, err := newRow(cfg, spec, workload.BuildOptions{Batch: b}, fmt.Sprintf("@batch%d", b))
			if err != nil {
				return figGrid{}, err
			}
			rows = append(rows, row)
		}
	}
	return runGrid(rows, cols)
}

// printFig15 renders Fig 15.
func printFig15(w io.Writer, cfg Config) error {
	g, err := fig15Grid(cfg, fig15Batches)
	if err != nil {
		return err
	}
	t := metrics.NewTable("mix", "batch", "PF+Merge", "AI-MT (All)", "splits")
	r := 0
	for _, spec := range workload.GNMTMixes() {
		for _, b := range fig15Batches {
			t.AddRow(spec.Name, fmt.Sprint(b), metrics.F(g.speedup(r, 1)), metrics.F(g.speedup(r, 2)),
				fmt.Sprint(g.out[r][2].Res.Splits))
			r++
		}
	}
	_, err = fmt.Fprintf(w, "Fig 15: batch-size sensitivity, speedup over FIFO\n%s", t)
	return err
}

// fig16Sizes are the weight-SRAM capacities swept by Fig 16.
var fig16Sizes = []Bytes{256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 16 * MiB, 64 * MiB, 256 * MiB, 1 * GiB, 4 * GiB}

// fig16Grid runs the combined CNNs+GNMT mix executed iteratively (the
// continuous-arrival cloud scenario) at each weight-SRAM capacity under
// FIFO, the naive compute-first order and the greedy mechanism — both
// with capacity-bounded prefetching — and full AI-MT (paper Fig 16).
// Columns are labelled by their registry names.
func fig16Grid(cfg Config, sizes []Bytes) (figGrid, error) {
	names := []string{"FIFO", "ComputeFirst+PF", "Greedy+PF", "AI-MT"}
	cols, err := schedCols(names...)
	if err != nil {
		return figGrid{}, err
	}
	for i := range cols {
		cols[i].label = names[i]
	}
	spec := PaperMixes()[3] // RN34+RN50+MN+GNMT
	var rows []gridRow
	for _, sz := range sizes {
		c := cfg
		c.WeightSRAM = sz
		row, err := newRow(c, spec, workload.BuildOptions{Batch: 8, Iterations: 2}, "@"+arch.FormatBytes(sz))
		if err != nil {
			return figGrid{}, err
		}
		rows = append(rows, row)
	}
	return runGrid(rows, cols)
}

// printFig16 renders Fig 16.
func printFig16(w io.Writer, cfg Config) error {
	g, err := fig16Grid(cfg, fig16Sizes)
	if err != nil {
		return err
	}
	t := speedupTable(g, "weight SRAM", func(r gridRow) string { return arch.FormatBytes(r.cfg.WeightSRAM) })
	_, err = fmt.Fprintf(w, "Fig 16: SRAM-capacity sensitivity, speedup over FIFO (batch 8, iterated)\n%s", t)
	return err
}

// fig10Data returns, per network, the per-layer prefetch SRAM demand
// estimate (paper Fig 10).
func fig10Data(cfg Config) (map[string][]analysis.PrefetchDemand, error) {
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

// printFig10 renders Fig 10 (per-network maxima plus the largest
// individual layers).
func printFig10(w io.Writer, cfg Config) error {
	data, err := fig10Data(cfg)
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

// servingData runs a reproducible open-loop request stream (equal
// shares of RN34, RN50, MN and GNMT requests, exponential
// inter-arrival) under FIFO, PREMA and AI-MT — the cloud scenario the
// paper's introduction motivates multi-tenancy with — and returns one
// report per scheduler. Latencies stream into a bounded-memory
// histogram rather than a per-request slice.
func servingData(cfg Config) ([]*ServeReport, error) {
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
	points, err := ServeSweep(cfg, classes, specs, ServeSweepOptions{
		Options: ClusterOptions{Workers: sweepParallelism()},
		Stream:  ServeStreamOptions{Requests: 24, Seed: 7},
		Gaps:    []Cycles{50_000},
	})
	if err != nil {
		return nil, err
	}
	reports := make([]*ServeReport, len(points[0].Results))
	for i, r := range points[0].Results {
		reports[i] = r.Agg
	}
	return reports, nil
}

// printServing renders the open-loop serving comparison.
func printServing(w io.Writer, cfg Config) error {
	pts, err := servingData(cfg)
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

// loadSweepFigure sweeps offered load over a serving mix under FIFO,
// PREMA, AI-MT and EDF, from light traffic to past saturation, and
// renders one table per load point under title. Request counts are
// kept modest so the experiments regenerate quickly; see cmd/aimt-serve
// for production-scale sweeps.
func loadSweepFigure(title string, classes func() []ServeClass, requests int) func(io.Writer, Config) error {
	return func(w io.Writer, cfg Config) error {
		points, err := ServeSweep(cfg, classes(), ServeStandardSchedulers(), ServeSweepOptions{
			Options: ClusterOptions{Workers: sweepParallelism()},
			Stream:  ServeStreamOptions{Requests: requests, Seed: 7},
		})
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s, %d requests per point\n", title, requests); err != nil {
			return err
		}
		return PrintServeCurve(w, points)
	}
}

// clusterScaleChips are the chip counts swept by the clusterscale
// experiment.
var clusterScaleChips = []int{1, 2, 4, 8}

// clusterScaleLoad is the clusterscale experiment's fixed offered load
// in single-chip capacities: 2.5 means the stream demands two and a
// half chips' worth of service, so 1- and 2-chip clusters saturate
// while 4 and 8 chips have headroom.
const clusterScaleLoad = 2.5

// clusterScaleData holds offered load fixed at clusterScaleLoad
// single-chip capacities and sweeps the cluster size under every
// routing policy (AI-MT on every chip): aggregate throughput must grow
// with the chip count while tail latency and SLA misses collapse once
// the cluster absorbs the load. The same request sequence (same seed)
// is routed at every cell, so cells differ only in cluster shape and
// policy. It returns one result per (policy, chip count) cell,
// policies outermost.
func clusterScaleData(cfg Config) ([]*cluster.Result, error) {
	classes := DefaultServingClasses()
	gaps, err := serve.Gaps(cfg, classes, clusterScaleLoad)
	if err != nil {
		return nil, err
	}
	spec, err := serve.SpecByName("AI-MT")
	if err != nil {
		return nil, err
	}
	var routes []ClusterRoute
	for _, pol := range ClusterPolicies() {
		for _, chips := range clusterScaleChips {
			routes = append(routes, ClusterRoute{Policy: pol, Chips: chips})
		}
	}
	points, err := ServeSweep(cfg, classes, []SchedulerSpec{spec}, ServeSweepOptions{
		Options: ClusterOptions{Workers: sweepParallelism()},
		Stream:  ServeStreamOptions{Requests: 320, Seed: 7},
		Gaps:    gaps,
		Routes:  routes,
	})
	if err != nil {
		return nil, fmt.Errorf("clusterscale: %w", err)
	}
	return points[0].Results, nil
}

// printClusterScale renders the clusterscale experiment: one table per
// routing policy, chip count ascending.
func printClusterScale(w io.Writer, cfg Config) error {
	pts, err := clusterScaleData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Cluster scaling (extension): %d requests at %.1f single-chip loads, AI-MT per chip\n",
		320, clusterScaleLoad); err != nil {
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

// overloadLoads are the offered loads swept by the overloadcurve
// experiment, in full-cluster capacities: 5.0 demands five times what
// the whole cluster can serve.
var overloadLoads = []float64{0.8, 2.0, 3.5, 5.0}

// overloadChips is the overloadcurve cluster size ceiling the
// autoscaler may grow into.
const overloadChips = 2

// overloadClasses returns the two-band serving mix of the overload
// experiments: the CNN class is the premium band (priority 1, never
// shed by admission control) and the RNN class is the batch band
// (priority 0, sheddable). Weights keep premium a minority of the
// offered work so that even at 5x saturation its demand fits within
// the cluster once batch is shed.
func overloadClasses() []ServeClass {
	classes := DefaultServingClasses()
	classes[0].Priority = 1
	classes[0].Weight = 1
	classes[1].Priority = 0
	classes[1].Weight = 4
	return classes
}

// overloadPoint is one load point of the overloadcurve experiment.
type overloadPoint struct {
	// Load is the offered load in full-cluster capacities.
	Load float64
	// Res is the controlled cluster serving outcome at this load.
	Res *cluster.Result
}

// overloadCurveData sweeps offered load from comfortable to 5x
// saturation through the full control plane — priority preemption on
// every chip, SLO-aware admission at the front door, elastic
// autoscaling between 1 and overloadChips chips — and returns one
// point per load. Graceful degradation means the premium band's SLA
// miss rate stays flat across the sweep while the batch band is shed
// in growing, predictable proportion.
func overloadCurveData(cfg Config) ([]overloadPoint, error) {
	classes := overloadClasses()
	loads := make([]float64, len(overloadLoads))
	for i, load := range overloadLoads {
		loads[i] = load * float64(overloadChips)
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
	points, err := ServeSweep(cfg, classes, []SchedulerSpec{spec}, ServeSweepOptions{
		Options: ClusterOptions{
			Workers: sweepParallelism(),
			Control: ClusterControl{Admission: true, Autoscale: true},
		},
		Stream: ServeStreamOptions{Requests: 300, Seed: 7},
		Gaps:   gaps,
		Routes: []ClusterRoute{{Policy: pol, Chips: overloadChips}},
	})
	if err != nil {
		return nil, fmt.Errorf("overloadcurve: %w", err)
	}
	out := make([]overloadPoint, len(points))
	for i, pt := range points {
		out[i] = overloadPoint{Load: overloadLoads[i], Res: pt.Results[0]}
	}
	return out, nil
}

// printOverloadCurve renders the overloadcurve experiment: one
// per-class degradation table per load point, plus the control-plane
// event counts.
func printOverloadCurve(w io.Writer, cfg Config) error {
	pts, err := overloadCurveData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Overload degradation (extension): admission + priorities + autoscale, %d requests per point, up to %d chips\n",
		300, overloadChips); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "load %.1fx: shed %d of %d, scale-ups %d, scale-downs %d, active chips %d\n",
			p.Load, p.Res.Agg.Shed, p.Res.Agg.Requests, p.Res.ScaleUps, p.Res.ScaleDowns, p.Res.ActiveChips); err != nil {
			return err
		}
		t := metrics.NewTable("class", "prio", "offered", "shed", "served", "miss rate", "p99")
		for i, cs := range p.Res.Agg.PerClass {
			t.AddRow(cs.Class, fmt.Sprint(overloadClasses()[i].Priority),
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

// decodeBatchSizes are the decode batch sizes swept by the decodebatch
// experiment.
var decodeBatchSizes = []int{1, 4, 16}

// decodeBatchLoad is the decodebatch experiment's fixed offered load in
// single-chip capacities.
const decodeBatchLoad = 0.7

// decodeBatchPoint is one batch-size point of the decodebatch
// experiment.
type decodeBatchPoint struct {
	// Batch is the per-request batch size (concurrent sequences whose
	// decode steps share one weight fetch).
	Batch int
	// Rep is the AI-MT serving report at this batch size.
	Rep *ServeReport
}

// decodeBatchCurveData holds offered load fixed at decodeBatchLoad and
// sweeps the decode batch size under AI-MT: batching amortizes each
// decode iteration's KV-cache and weight traffic over more tokens, so
// tokens per megacycle must rise with the batch size while the
// per-token deadline ladder keeps latency honest.
func decodeBatchCurveData(cfg Config) ([]decodeBatchPoint, error) {
	spec, err := serve.SpecByName("AI-MT")
	if err != nil {
		return nil, err
	}
	var out []decodeBatchPoint
	for _, batch := range decodeBatchSizes {
		classes := []ServeClass{serve.TransformerChatClass(8, batch)}
		gaps, err := serve.Gaps(cfg, classes, decodeBatchLoad)
		if err != nil {
			return nil, err
		}
		stream, err := serve.NewStream(cfg, classes, ServeStreamOptions{Requests: 96, MeanGap: gaps[0], Seed: 7})
		if err != nil {
			return nil, err
		}
		rep, err := serve.Serve(cfg, stream, spec.New(cfg, stream), RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("decodebatch batch %d: %w", batch, err)
		}
		rep.Scheduler = spec.Name
		out = append(out, decodeBatchPoint{Batch: batch, Rep: rep})
	}
	return out, nil
}

// printDecodeBatch renders the decode-batching curve: tokens per
// megacycle (and per second per chip at the configured frequency)
// against batch size, with the per-phase tails.
func printDecodeBatch(w io.Writer, cfg Config) error {
	pts, err := decodeBatchCurveData(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Decode batching (extension): chat class, 8 decode tokens/request, AI-MT, load %.1f, 96 requests\n",
		decodeBatchLoad); err != nil {
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

// lookaheadHorizons are the speculation horizons swept by the
// lookahead experiment, in cycles.
var lookaheadHorizons = []Cycles{1024, 4096, 16384}

// lookaheadBatches are the batch sizes swept by the lookahead
// experiment.
var lookaheadBatches = []int{1, 4}

// lookaheadGrid runs the contended paper mixes — several
// compute-intensive networks racing one memory-intensive network for
// block SRAM — at each batch size under plain AI-MT (column 0) and
// under Lookahead(AI-MT) at each of lookaheadHorizons (columns 1…).
// These are the mixes where AI-MT's static issue heuristics face
// genuinely ambiguous fetch decisions, so forward simulation has room
// to improve on them; in the two-network mixes the contested decisions
// are rare and short horizons can even mislead. Lookahead commits a
// speculative decision only when the forward simulation shows a strict
// progress win and otherwise defers to the inner policy, so its
// makespan is never worse than AI-MT's and strictly better where
// speculation pays.
func lookaheadGrid(cfg Config) (figGrid, error) {
	cols, err := schedCols("AI-MT")
	if err != nil {
		return figGrid{}, err
	}
	aimt := cols[0].new
	for _, h := range lookaheadHorizons {
		cols = append(cols, gridCol{new: func(cfg Config, mix *Mix) Scheduler {
			return sched.NewLookahead(aimt(cfg, mix), h)
		}})
	}
	var rows []gridRow
	for _, b := range lookaheadBatches {
		for _, spec := range PaperMixes() {
			if len(spec.Compute) == 1 {
				continue
			}
			row, err := newRow(cfg, spec, workload.BuildOptions{Batch: b}, fmt.Sprintf("@batch%d", b))
			if err != nil {
				return figGrid{}, err
			}
			rows = append(rows, row)
		}
	}
	return runGrid(rows, cols)
}

// printLookahead renders the lookahead experiment: exact makespans so
// the never-worse property is visible cycle by cycle.
func printLookahead(w io.Writer, cfg Config) error {
	g, err := lookaheadGrid(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Speculative lookahead (extension): forward-simulated contested fetches vs AI-MT, contended mixes\n"); err != nil {
		return err
	}
	t := metrics.NewTable("mix", "horizon", "AI-MT makespan", "Lookahead makespan", "speedup")
	for r, row := range g.rows {
		for c, h := range lookaheadHorizons {
			t.AddRow(row.label, fmt.Sprint(h),
				fmt.Sprint(g.out[r][0].Res.Makespan), fmt.Sprint(g.out[r][c+1].Res.Makespan),
				metrics.F(g.speedup(r, c+1)))
		}
	}
	_, err = fmt.Fprintf(w, "%s", t)
	return err
}

// printSpatial renders, per zoo network, the mean spatial MAC
// utilization of the weight-stationary mapping — the §VI-B headroom a
// spatial co-execution extension could reclaim.
func printSpatial(w io.Writer, cfg Config) error {
	zoo := nn.Zoo()
	var names []string
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)
	t := metrics.NewTable("network", "mean spatial MAC utilization")
	for _, n := range names {
		t.AddRow(n, metrics.Pct(analysis.MeanSpatialUtil(analysis.SpatialUtilization(zoo[n], cfg))))
	}
	_, err := fmt.Fprintf(w, "Spatial utilization (extension, paper SVI-B headroom)\n%s", t)
	return err
}

// printTable1 renders the hardware parameters (paper Table I).
func printTable1(w io.Writer, cfg Config) error {
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

// table2Row is one workload row of the paper's Table II.
type table2Row struct {
	// Name is the network's short name.
	Name string
	// FC and Conv are the weight-layer counts (depthwise convolutions
	// count as CONV, as in the paper).
	FC, Conv int
	// Weights is the total weight-element count.
	Weights int64
}

// table2Rows returns the workload configurations (paper Table II).
func table2Rows() []table2Row {
	var rows []table2Row
	for _, name := range []string{"RN34", "RN50", "VGG16", "MN", "GNMT"} {
		net, err := nn.ByName(name)
		if err != nil {
			panic(err) // zoo names are static
		}
		c := net.CountByType()
		rows = append(rows, table2Row{
			Name:    net.Name,
			FC:      c[nn.FC],
			Conv:    c[nn.Conv] + c[nn.DWConv],
			Weights: net.TotalWeights(),
		})
	}
	return rows
}

// printTable2 renders Table II.
func printTable2(w io.Writer) error {
	t := metrics.NewTable("name", "FC layers", "CONV layers", "weights", "batch")
	for _, r := range table2Rows() {
		t.AddRow(r.Name, fmt.Sprint(r.FC), fmt.Sprint(r.Conv), fmt.Sprint(r.Weights), "1-32")
	}
	_, err := fmt.Fprintf(w, "Table II: neural network workloads\n%s", t)
	return err
}

// printTable3 renders the power/area estimates for the on-chip memory
// blocks with five co-resident networks, as the paper does (Table III).
func printTable3(w io.Writer, cfg Config) error {
	rows := power.Table3(cfg, 5)
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
		{ID: "table1", Title: "Hardware and architecture parameters", Run: printTable1},
		{ID: "table2", Title: "Neural network workloads", Run: func(w io.Writer, _ Config) error { return printTable2(w) }},
		{ID: "fig5", Title: "VGG16 compute vs memory latency per layer", Run: printFig5},
		{ID: "fig7", Title: "Utilization under round-robin scheduling", Run: printFig7},
		{ID: "fig8", Title: "Baseline scheduling speedups", Run: speedupFigure("Fig 8: baseline scheduling mechanisms, speedup over FIFO", fig8Grid)},
		{ID: "fig10", Title: "Required prefetch SRAM per layer", Run: printFig10},
		{ID: "fig14", Title: "AI-MT speedup ablation", Run: speedupFigure("Fig 14: AI-MT speedup over network-serial execution (batch 1)", fig14Grid)},
		{ID: "fig15", Title: "Batch-size sensitivity", Run: printFig15},
		{ID: "fig16", Title: "SRAM-capacity sensitivity", Run: printFig16},
		{ID: "table3", Title: "Power and area overheads", Run: printTable3},
		{ID: "serving", Title: "Open-loop serving latency (extension)", Run: printServing},
		// The default mixed CNN/RNN stream: Poisson arrivals,
		// per-request deadlines.
		{ID: "loadcurve", Title: "Serving load sweep with SLA tracking (extension)",
			Run: loadSweepFigure("Load curve (extension): mixed CNN/RNN serving", DefaultServingClasses, 300)},
		{ID: "clusterscale", Title: "Cluster scaling: throughput and tail latency vs chip count (extension)", Run: printClusterScale},
		{ID: "overloadcurve", Title: "Overload degradation: admission, priorities and autoscaling under saturation (extension)", Run: printOverloadCurve},
		// Each transformer request is one prefill burst plus eight
		// chained decode iterations with per-token deadlines. Prefill
		// entries are compute-bound and decode entries memory-bound, the
		// MB/CB co-execution opportunity the paper targets, so schedulers
		// that overlap the two phases across requests win on both tail
		// latency and tokens per megacycle.
		{ID: "transformermix", Title: "Transformer/CNN mix: phase-aware serving load sweep (extension)",
			Run: loadSweepFigure("Transformer mix (extension): chat (prefill + 8 decode tokens) vs CNN", TransformerServingClasses, 120)},
		{ID: "decodebatch", Title: "Decode batching: tokens per megacycle vs batch size (extension)", Run: printDecodeBatch},
		{ID: "lookahead", Title: "Speculative lookahead: forward-simulated contested fetches vs AI-MT (extension)", Run: printLookahead},
		{ID: "spatial", Title: "Spatial PE utilization headroom (extension)", Run: printSpatial},
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
