package aimt

import (
	"fmt"
	"io"
	"testing"

	"aimt/internal/analysis"
	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/core"
	"aimt/internal/metrics"
	"aimt/internal/nn"
	"aimt/internal/obs"
	"aimt/internal/power"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
	"aimt/internal/workload"
)

// One benchmark per table and figure of the paper's evaluation. Each
// reports the figure's headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the paper's numbers
// alongside the harness's own cost:
//
//	speedup           makespan(FIFO) / makespan(policy)
//	pe-util, mem-util busy fractions
//	MiB               SRAM demand
//	mW                static power
//
// The shape assertions live in experiments_test.go; benches measure.

// BenchmarkTable2_Workloads compiles the full model zoo — the cost of
// building every sub-layer scheduling table of Table II.
func BenchmarkTable2_Workloads(b *testing.B) {
	cfg := PaperConfig()
	var subLayers int
	for i := 0; i < b.N; i++ {
		subLayers = 0
		for _, net := range nn.Zoo() {
			cn, err := Compile(net, cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			subLayers += cn.Stats().SubLayers
		}
	}
	b.ReportMetric(float64(subLayers), "sublayers")
}

// BenchmarkFig5_VGG16LatencyRatio regenerates Fig 5 and reports the
// FC tail's memory fraction.
func BenchmarkFig5_VGG16LatencyRatio(b *testing.B) {
	cfg := PaperConfig()
	var rows []analysis.LayerRatio
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = fig5Data(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	fc6 := rows[13]
	b.ReportMetric(1-fc6.ComputeFraction(), "fc6-mem-frac")
}

// BenchmarkFig7_RRUtilization simulates every co-location mix under
// round-robin and reports the mean utilizations Fig 7 plots.
func BenchmarkFig7_RRUtilization(b *testing.B) {
	cfg := PaperConfig()
	var g figGrid
	for i := 0; i < b.N; i++ {
		var err error
		g, err = fig7Grid(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var pe, mem float64
	for r := range g.rows {
		pe += g.out[r][0].Res.PEUtilization()
		mem += g.out[r][0].Res.MemUtilization()
	}
	b.ReportMetric(pe/float64(len(g.rows)), "pe-util")
	b.ReportMetric(mem/float64(len(g.rows)), "mem-util")
}

// BenchmarkFig8_BaselineSpeedup reports the geomean speedup of each
// baseline policy over FIFO.
func BenchmarkFig8_BaselineSpeedup(b *testing.B) {
	cfg := PaperConfig()
	var g figGrid
	for i := 0; i < b.N; i++ {
		var err error
		g, err = fig8Grid(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportGeomeans(b, g)
}

// BenchmarkFig10_PrefetchSRAM reports the largest per-layer prefetch
// buffer demand across the zoo, in MiB.
func BenchmarkFig10_PrefetchSRAM(b *testing.B) {
	cfg := PaperConfig()
	var data map[string][]analysis.PrefetchDemand
	for i := 0; i < b.N; i++ {
		var err error
		data, err = fig10Data(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var max Bytes
	for _, d := range data {
		if m := analysis.MaxDemand(d); m > max {
			max = m
		}
	}
	b.ReportMetric(float64(max)/float64(MiB), "MiB")
}

// BenchmarkFig14_AIMTSpeedup reports the geomean speedup of each
// AI-MT mechanism set over FIFO at batch 1 — the paper's headline
// ablation.
func BenchmarkFig14_AIMTSpeedup(b *testing.B) {
	cfg := PaperConfig()
	var g figGrid
	for i := 0; i < b.N; i++ {
		var err error
		g, err = fig14Grid(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportGeomeans(b, g)
}

// reportGeomeans reports each scheduler column's geomean speedup over
// the grid's baseline column.
func reportGeomeans(b *testing.B, g figGrid) {
	for c, o := range g.out[0][1:] {
		b.ReportMetric(g.geomean(c+1), o.Scheduler+"-speedup")
	}
}

// BenchmarkFig15_BatchSensitivity sweeps batch size per sub-benchmark
// and reports the full design's speedup over FIFO.
func BenchmarkFig15_BatchSensitivity(b *testing.B) {
	cfg := PaperConfig()
	for _, batch := range fig15Batches {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var g figGrid
			for i := 0; i < b.N; i++ {
				var err error
				g, err = fig15Grid(cfg, []int{batch})
				if err != nil {
					b.Fatal(err)
				}
			}
			var mg, all []float64
			for r := range g.rows {
				mg = append(mg, g.speedup(r, 1))
				all = append(all, g.speedup(r, 2))
			}
			b.ReportMetric(metrics.GeoMean(mg), "merge-speedup")
			b.ReportMetric(metrics.GeoMean(all), "all-speedup")
		})
	}
}

// BenchmarkFig16_SRAMSensitivity sweeps the weight-SRAM capacity per
// sub-benchmark and reports each policy's speedup over FIFO.
func BenchmarkFig16_SRAMSensitivity(b *testing.B) {
	cfg := PaperConfig()
	for _, sz := range fig16Sizes {
		b.Run(fmt.Sprintf("sram=%dKiB", sz/KiB), func(b *testing.B) {
			var g figGrid
			for i := 0; i < b.N; i++ {
				var err error
				g, err = fig16Grid(cfg, []Bytes{sz})
				if err != nil {
					b.Fatal(err)
				}
			}
			for c, o := range g.out[0][1:] {
				b.ReportMetric(g.speedup(0, c+1), o.Scheduler+"-speedup")
			}
		})
	}
}

// BenchmarkTable3_PowerArea evaluates the CACTI-calibrated SRAM model
// and reports the AI-MT structure overhead fraction.
func BenchmarkTable3_PowerArea(b *testing.B) {
	cfg := PaperConfig()
	var rows []power.Row
	for i := 0; i < b.N; i++ {
		rows = power.Table3(cfg, 5)
	}
	b.ReportMetric(power.OverheadFraction(rows), "overhead-frac")
	b.ReportMetric(rows[2].PowerMW, "sched-tables-mW")
}

// --- Ablations of the design choices DESIGN.md calls out. ---

// BenchmarkAblationSplit contrasts the full design with CB split
// disabled on the capacity-pressure scenario where splits fire
// (batch 8, 1 MB weight SRAM).
func BenchmarkAblationSplit(b *testing.B) {
	cfg := PaperConfig()
	mix, err := BuildMix(cfg, PaperMixes()[0], 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    Mechanisms
	}{
		{"with-split", AllMechanisms()},
		{"no-split", Mechanisms{Merge: true, Evict: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Run(cfg, mix.Nets, NewAIMT(cfg, tc.m), RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Makespan), "makespan-cycles")
			b.ReportMetric(float64(res.Splits), "splits")
		})
	}
}

// BenchmarkAblationAVLAccounting contrasts the paper's decaying AVL_CB
// counter against exact coverage measurement for the merge-only
// configuration (see core.AIMT's avlMode).
func BenchmarkAblationAVLAccounting(b *testing.B) {
	cfg := PaperConfig()
	mix, err := BuildMix(cfg, PaperMixes()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	base, err := Run(cfg, mix.Nets, NewFIFO(), RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		exact bool
	}{
		{"decaying-counter", false},
		{"exact-coverage", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				s := NewAIMT(cfg, core.PrefetchMerge()).SetExactAVL(tc.exact)
				var err error
				res, err = Run(cfg, mix.Nets, s, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(metrics.Speedup(base, res), "speedup")
		})
	}
}

// BenchmarkAblationMergeThreshold sweeps the AVL_CB threshold.
func BenchmarkAblationMergeThreshold(b *testing.B) {
	cfg := PaperConfig()
	mix, err := BuildMix(cfg, PaperMixes()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	base, err := Run(cfg, mix.Nets, NewFIFO(), RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	fcMB := Cycles(cfg.ReadCyclesPerArray()) * Cycles(cfg.NumArrays)
	for _, mult := range []Cycles{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threshold=%dxFCMB", mult), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				s := NewAIMT(cfg, core.PrefetchMerge()).SetMergeThreshold(mult * fcMB)
				var err error
				res, err = Run(cfg, mix.Nets, s, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(metrics.Speedup(base, res), "speedup")
		})
	}
}

// BenchmarkAblationReplication sweeps the workload-balancing cap,
// showing how co-location balance drives the attainable overlap.
func BenchmarkAblationReplication(b *testing.B) {
	cfg := PaperConfig()
	for _, rep := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("max-rep=%d", rep), func(b *testing.B) {
			mix, err := workload.Build(cfg, PaperMixes()[0], workload.BuildOptions{Batch: 1, MaxReplication: rep})
			if err != nil {
				b.Fatal(err)
			}
			base, err := Run(cfg, mix.Nets, NewFIFO(), RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Run(cfg, mix.Nets, NewAIMT(cfg, AllMechanisms()), RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(metrics.Speedup(base, res), "speedup")
		})
	}
}

// BenchmarkAblationSchedulerLatency contrasts the paper's hardware
// scheduler with software implementations of increasing per-decision
// latency (§IV-D): coarse-grain sub-layers hide modest software
// latency, but a slow scheduler erodes the multi-tenancy win.
func BenchmarkAblationSchedulerLatency(b *testing.B) {
	cfg := PaperConfig()
	mix, err := BuildMix(cfg, PaperMixes()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	base, err := Run(cfg, mix.Nets, NewFIFO(), RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, lat := range []Cycles{0, 100, 500, 2000} {
		b.Run(fmt.Sprintf("latency=%d", lat), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Run(cfg, mix.Nets, NewAIMT(cfg, AllMechanisms()),
					RunOptions{SchedulerLatency: lat})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(metrics.Speedup(base, res), "speedup")
		})
	}
}

// BenchmarkAblationHardwareScale contrasts the paper's scaled-up core
// (16 arrays, 8-bit, 450 GB/s) with the unscaled TPUv2-like baseline
// it derives from (§II-B): AI-MT's relative win depends on the
// compute/bandwidth balance of the machine underneath.
func BenchmarkAblationHardwareScale(b *testing.B) {
	tpuv2 := arch.TPUv2Config()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper-16x8bit-450GBs", PaperConfig()},
		{"tpuv2-2x16bit-300GBs", tpuv2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mix, err := BuildMix(tc.cfg, PaperMixes()[0], 1)
			if err != nil {
				b.Fatal(err)
			}
			base, err := Run(tc.cfg, mix.Nets, NewFIFO(), RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Run(tc.cfg, mix.Nets, NewAIMT(tc.cfg, AllMechanisms()), RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(metrics.Speedup(base, res), "speedup")
			b.ReportMetric(res.PEUtilization(), "pe-util")
		})
	}
}

// BenchmarkExtensionMultiTenancy compares AI-MT against the PREMA
// time-multiplexing scheduler (§VII-C related work) on the standard
// multi-program metrics: STP (system throughput, higher is better)
// and ANTT (average normalized turnaround, lower is better). AI-MT's
// simultaneous execution should win STP; PREMA's strict priority can
// win per-tenant turnaround for the favored network.
func BenchmarkExtensionMultiTenancy(b *testing.B) {
	cfg := PaperConfig()
	mix, err := BuildMix(cfg, PaperMixes()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	alone := make([]Cycles, len(mix.Nets))
	for i, cn := range mix.Nets {
		res, err := Run(cfg, []*Compiled{cn}, NewFIFO(), RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		alone[i] = res.Makespan
	}
	for _, tc := range []struct {
		name string
		mk   func() Scheduler
	}{
		{"FIFO", func() Scheduler { return NewFIFO() }},
		{"PREMA", func() Scheduler { return NewPREMA(nil) }},
		{"AI-MT", func() Scheduler { return NewAIMT(cfg, AllMechanisms()) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Run(cfg, mix.Nets, tc.mk(), RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(metrics.STP(alone, res), "STP")
			b.ReportMetric(metrics.ANTT(alone, res), "ANTT")
		})
	}
}

// BenchmarkExtensionTenantPriority measures what a latency-sensitive
// tenant gains from weighted AI-MT scheduling versus uniform sharing
// and versus PREMA's preemptive priority: the favored network's
// completion time and the workload makespan.
func BenchmarkExtensionTenantPriority(b *testing.B) {
	cfg := PaperConfig()
	// Favor the first GNMT instance (net 1): a tenant off the
	// compute-bound critical path, where priority can actually move
	// its completion time.
	mix, err := BuildMix(cfg, PaperMixes()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	weights := make([]float64, len(mix.Nets))
	for i := range weights {
		weights[i] = 1
	}
	weights[1] = 8
	for _, tc := range []struct {
		name string
		mk   func() Scheduler
	}{
		{"AI-MT-uniform", func() Scheduler { return NewAIMT(cfg, AllMechanisms()) }},
		{"AI-MT-weighted", func() Scheduler { return NewAIMT(cfg, AllMechanisms()).SetPriorities(weights) }},
		{"PREMA-weighted", func() Scheduler { return NewPREMA(weights) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Run(cfg, mix.Nets, tc.mk(), RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.NetFinish[1]), "tenant-finish")
			b.ReportMetric(float64(res.Makespan), "makespan")
		})
	}
}

// BenchmarkSweepWorkers measures sweep-engine scaling: the Fig 14
// mix × mechanism cross-product at increasing worker counts. The
// aggregated results are identical at every width (see
// TestSweepParallelismDeterminism); only wall clock changes.
func BenchmarkSweepWorkers(b *testing.B) {
	cfg := PaperConfig()
	defer SetSweepParallelism(0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			SetSweepParallelism(workers)
			for i := 0; i < b.N; i++ {
				if _, err := fig14Grid(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw engine speed: simulated
// blocks per second on the heaviest single mix.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := PaperConfig()
	mix, err := BuildMix(cfg, PaperMixes()[3], 4)
	if err != nil {
		b.Fatal(err)
	}
	var blocks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, mix.Nets, NewAIMT(cfg, AllMechanisms()), RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		blocks = res.MBCount + res.CBCount
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

// benchServeStream draws the serving benchmarks' stream: 10,000
// DefaultClasses requests, Poisson arrivals at offered load 0.9, seed
// 7 — the stream of the serve-poisson and serve-rtrace harness
// workloads.
func benchServeStream(b *testing.B, cfg Config) *serve.Stream {
	b.Helper()
	classes := serve.DefaultClasses()
	gaps, err := serve.Gaps(cfg, classes, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: 10_000, MeanGap: gaps[0], Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkServeStream measures serving-path engine speed: a
// 10k-request open-loop stream near saturation (offered load 0.9)
// under the full AI-MT stack — the workload whose event count makes
// candidate-scan cost the binding constraint (see the frontier
// tracking in internal/sim).
func BenchmarkServeStream(b *testing.B) {
	cfg := PaperConfig()
	stream := benchServeStream(b, cfg)
	var blocks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, stream.Nets, NewAIMT(cfg, AllMechanisms()),
			RunOptions{Arrivals: stream.Arrivals})
		if err != nil {
			b.Fatal(err)
		}
		blocks = res.MBCount + res.CBCount
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

// BenchmarkServeStreamChecked is BenchmarkServeStream with the
// machine-model invariant checker on: it gates the checker's per-event
// cost (frontier rescans, the SRAM block-table walk over the nets
// holding blocks), which the sweep engine's verification mode and
// every checked test run pay.
func BenchmarkServeStreamChecked(b *testing.B) {
	cfg := PaperConfig()
	stream := benchServeStream(b, cfg)
	var blocks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, stream.Nets, NewAIMT(cfg, AllMechanisms()),
			RunOptions{Arrivals: stream.Arrivals, CheckInvariants: true})
		if err != nil {
			b.Fatal(err)
		}
		blocks = res.MBCount + res.CBCount
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

// BenchmarkServeStreamTraced measures the same serving run with
// request tracing on: the collector taps every occupancy event, and
// each run pays span building plus store aggregation — the full cost
// of explaining every request's latency.
func BenchmarkServeStreamTraced(b *testing.B) {
	cfg := PaperConfig()
	stream := benchServeStream(b, cfg)
	st := NewRequestTraceStore(RequestTraceOptions{SampleEvery: 16})
	var spans int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := rtrace.NewCollector(len(stream.Nets))
		res, err := Run(cfg, stream.Nets, NewAIMT(cfg, AllMechanisms()),
			RunOptions{Arrivals: stream.Arrivals, Tracer: col})
		if err != nil {
			b.Fatal(err)
		}
		sp := rtrace.Build(serve.TraceInput(stream, res, "bench"), col)
		st.AddRun(sp)
		spans = len(sp)
	}
	b.ReportMetric(float64(spans), "spans/op")
}

// BenchmarkServeStreamObserved runs the admin daemon's shape in
// process, as the serve-rtrace harness workload does: the 10k-request
// stream at offered load 0.9 with the request tracer, a registry
// labelling nets by class and a decision ledger attached, then span
// building, store aggregation, both publishes and one Prometheus
// scrape. It is what observation costs end to end.
func BenchmarkServeStreamObserved(b *testing.B) {
	cfg := PaperConfig()
	s := benchServeStream(b, cfg)
	var blocks int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := rtrace.NewCollector(len(s.Nets))
		reg, led := obs.NewRegistry(), obs.NewLedger(obs.DefaultLedgerCap)
		store := rtrace.NewStore(rtrace.Options{})
		res, err := sim.Run(cfg, s.Nets, core.New(cfg, core.All()), sim.Options{
			Arrivals: s.Arrivals, ChainAfter: s.ChainAfter, Tracer: col,
			Metrics: reg, Ledger: led, NetClasses: s.NetClasses(),
		})
		if err != nil {
			b.Fatal(err)
		}
		rep := serve.BuildReport(s, res)
		store.AddRun(rtrace.Build(serve.TraceInput(s, res, "AI-MT"), col))
		rep.Publish(reg)
		store.Publish(reg)
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
		blocks = res.MBCount + res.CBCount
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

// cluster8Unit builds the cluster8-transformer harness unit in
// process and returns one run of it: a 4000-request transformer/CNN
// stream at per-chip offered load 1.2 over 8 chips, cluster.Deadline
// (least-work) routing with admission control, AI-MT on every chip and
// the chip engines on the default sweep pool.
func cluster8Unit(tb testing.TB) func() (*cluster.Result, error) {
	cfg := PaperConfig()
	classes := serve.TransformerClasses()
	const chips = 8
	gaps, err := serve.Gaps(cfg, classes, 1.2*chips)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: 4000, MeanGap: gaps[0], Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := serve.SpecByName("AI-MT")
	if err != nil {
		tb.Fatal(err)
	}
	return func() (*cluster.Result, error) {
		return cluster.Serve(cfg, s, spec, cluster.Deadline{}, cluster.Options{
			Chips:   chips,
			Control: cluster.Control{Admission: true},
		})
	}
}

// BenchmarkCluster8 gates cluster.Serve's per-call cost on the
// cluster8Unit: dispatch, sub-streams, the chip simulations and the
// report fold.
func BenchmarkCluster8(b *testing.B) {
	serveOnce := cluster8Unit(b)
	var blocks int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := serveOnce()
		if err != nil {
			b.Fatal(err)
		}
		blocks = 0
		for _, res := range r.ChipResults {
			if res != nil {
				blocks += res.MBCount + res.CBCount
			}
		}
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

// BenchmarkCompile measures sub-layer table generation for the
// largest network.
func BenchmarkCompile(b *testing.B) {
	cfg := PaperConfig()
	net := nn.ResNet50()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(net, cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildMix measures building the eight paper mixes at batch
// 4: every zoo network built and compiled from scratch, one input set
// of the harness set-up.
func BenchmarkBuildMix(b *testing.B) {
	cfg := PaperConfig()
	specs := PaperMixes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := BuildMix(cfg, spec, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}
