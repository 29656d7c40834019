// Package aimt is a reproduction of "A Multi-Neural Network
// Acceleration Architecture" (Baek, Kwon, Kim — ISCA 2020): a
// cycle-level simulator of a TPU-like multi-array systolic accelerator
// together with the AI-MT hardware sub-layer scheduler, the paper's
// baseline policies, its workload mixes, and drivers that regenerate
// every table and figure of the evaluation.
//
// The typical flow is: pick a hardware Config (PaperConfig reproduces
// Table I), build or load networks (the Table II zoo is exported
// here), Compile each into a sub-layer scheduling table, and Run a
// co-located set under a Scheduler:
//
//	cfg := aimt.PaperConfig()
//	rn50, _ := aimt.Compile(aimt.ResNet50(), cfg, 1)
//	gnmt, _ := aimt.Compile(aimt.GNMT(), cfg, 1)
//	res, _ := aimt.Run(cfg, []*aimt.Compiled{rn50, gnmt},
//	    aimt.NewAIMT(cfg, aimt.AllMechanisms()), aimt.RunOptions{})
//	fmt.Println(res.Makespan, res.PEUtilization())
//
// The experiment drivers (Fig5Data ... Table3Rows) regenerate the
// paper's evaluation; see EXPERIMENTS.md.
package aimt

import (
	"io"
	"net/http"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/compiler"
	"aimt/internal/core"
	"aimt/internal/nn"
	"aimt/internal/obs"
	"aimt/internal/rtrace"
	"aimt/internal/runstore"
	"aimt/internal/sched"
	"aimt/internal/serve"
	"aimt/internal/sim"
	"aimt/internal/sweep"
	"aimt/internal/workload"
)

// Config describes the simulated hardware; see arch.Config.
type Config = arch.Config

// Cycles counts accelerator clock cycles.
type Cycles = arch.Cycles

// Bytes counts storage or traffic.
type Bytes = arch.Bytes

// Byte-quantity constants re-exported for configuration literals.
const (
	KiB = arch.KiB
	MiB = arch.MiB
	GiB = arch.GiB
)

// Network is a shape-level neural network model; see nn.Network.
type Network = nn.Network

// NetworkBuilder constructs custom networks; see nn.Builder.
type NetworkBuilder = nn.Builder

// Compiled is a network lowered to the accelerator's sub-layer
// scheduling table; see compiler.CompiledNetwork.
type Compiled = compiler.CompiledNetwork

// Scheduler decides block issue order; see sim.Scheduler.
type Scheduler = sim.Scheduler

// Result summarizes a simulation run; see sim.Result.
type Result = sim.Result

// RunOptions tunes a simulation run; see sim.Options.
type RunOptions = sim.Options

// Tracer receives occupancy intervals; see sim.Tracer.
type Tracer = sim.Tracer

// Mix is a compiled co-location scenario; see workload.Mix.
type Mix = workload.Mix

// MixSpec names a co-location scenario; see workload.Spec.
type MixSpec = workload.Spec

// PaperConfig returns the Table I hardware configuration.
func PaperConfig() Config {
	cfg := arch.PaperConfig()
	if err := cfg.Validate(); err != nil {
		panic(err) // the built-in preset is always valid
	}
	return cfg
}

// TPUv2Config returns the unscaled two-array 16-bit baseline the
// paper's hardware is derived from (§II-B).
func TPUv2Config() Config {
	cfg := arch.TPUv2Config()
	if err := cfg.Validate(); err != nil {
		panic(err) // the built-in preset is always valid
	}
	return cfg
}

// NewNetwork starts a custom network with the given input shape.
func NewNetwork(name string, inC, inH, inW int) *NetworkBuilder {
	return nn.NewBuilder(name, inC, inH, inW)
}

// Model zoo (Table II).
var (
	// ResNet34 returns the 36-CONV/1-FC residual network.
	ResNet34 = nn.ResNet34
	// ResNet50 returns the 53-CONV/1-FC bottleneck residual network.
	ResNet50 = nn.ResNet50
	// VGG16 returns the 13-CONV/3-FC network with large FC layers.
	VGG16 = nn.VGG16
	// MobileNet returns the 27-CONV/1-FC depthwise-separable network.
	MobileNet = nn.MobileNet
	// GNMT returns the 6-FC recurrent translation model abstraction.
	GNMT = nn.GNMT
	// NetworkByName resolves a zoo network from its short or long name.
	NetworkByName = nn.ByName
)

// TransformerConfig shapes a decoder-style transformer stack; see
// nn.TransformerConfig.
type TransformerConfig = nn.TransformerConfig

// Transformer zoo (extension): attention-based networks whose blocks
// lower to QKV/score/softmax/context/projection/MLP sub-layer chains.
var (
	// Transformer builds a transformer from an explicit config.
	Transformer = nn.Transformer
	// MustTransformer is Transformer, panicking on invalid configs.
	MustTransformer = nn.MustTransformer
	// BERTBase returns the 12-block encoder at the given sequence length.
	BERTBase = nn.BERTBase
	// GPT2Prefill returns the 12-block decoder processing a full prompt.
	GPT2Prefill = nn.GPT2Prefill
	// GPT2Decode returns the single-token autoregressive decode step
	// against a KV cache of the given context length.
	GPT2Decode = nn.GPT2Decode
)

// Compile lowers a network onto the hardware at the given batch size,
// producing its sub-layer scheduling table.
func Compile(net *Network, cfg Config, batch int) (*Compiled, error) {
	return compiler.Compile(net, cfg, batch)
}

// Run simulates the co-located execution of the compiled networks
// under the scheduler; all networks arrive at cycle zero.
func Run(cfg Config, nets []*Compiled, s Scheduler, opts RunOptions) (*Result, error) {
	return sim.Run(cfg, nets, s, opts)
}

// Engine is a simulation in progress that the caller can drive in
// bounded increments (StepUntil), fork with O(state) Snapshot/Restore
// and run to completion — the substrate of speculative lookahead
// scheduling and predictive cluster dispatch; see sim.Engine.
type Engine = sim.Engine

// EngineSnapshot is a point-in-time copy of an Engine's mutable
// machine state; see sim.Snapshot.
type EngineSnapshot = sim.Snapshot

// NewEngine returns an engine primed over the given workload, ready
// to be stepped, snapshotted and run; see sim.NewEngine.
func NewEngine(cfg Config, nets []*Compiled, s Scheduler, opts RunOptions) (*Engine, error) {
	return sim.NewEngine(cfg, nets, s, opts)
}

// ErrInvariant wraps every violation the opt-in machine-model
// invariant checker (RunOptions.CheckInvariants) reports; see
// sim.ErrInvariant.
var ErrInvariant = sim.ErrInvariant

// SweepJob is one simulation of a parallel sweep; see sweep.Job.
type SweepJob = sweep.Job

// SweepOutcome is one sweep job's result; see sweep.Outcome.
type SweepOutcome = sweep.Outcome

// SweepOptions tunes a sweep; see sweep.Options.
type SweepOptions = sweep.Options

// RunSweep fans independent simulations over a worker pool with
// deterministic, job-ordered aggregation; see sweep.Run. The
// experiment drivers (Fig7Data ... ServingData) run on it — see
// SetSweepParallelism for their worker cap.
func RunSweep(jobs []SweepJob, opts SweepOptions) []SweepOutcome { return sweep.Run(jobs, opts) }

// SweepError returns the first failed outcome's error, annotated with
// the job's labels; see sweep.FirstError.
func SweepError(outs []SweepOutcome) error { return sweep.FirstError(outs) }

// Baseline schedulers (§III-B, Fig 6).

// NewFIFO returns the network-serial baseline with double-buffered
// weight prefetching.
func NewFIFO() Scheduler { return sched.NewFIFO() }

// NewRR returns the round-robin baseline.
func NewRR() Scheduler { return sched.NewRR() }

// NewGreedy returns the size-matching greedy baseline.
func NewGreedy() Scheduler { return sched.NewGreedy() }

// NewGreedyPrefetch returns greedy with capacity-bounded (rather than
// double-buffered) prefetching, the Fig 16 variant.
func NewGreedyPrefetch() Scheduler { return sched.NewGreedyPrefetch() }

// NewPREMA returns the simplified PREMA reimplementation (Choi & Rhu,
// HPCA 2020) — token-based preemptive time-multiplexing at layer
// granularity, the related work the paper contrasts AI-MT with in
// §VII-C. priority is the per-network token rate (nil = equal).
func NewPREMA(priority []float64) Scheduler { return sched.NewPREMA(priority) }

// Mechanisms selects active AI-MT mechanisms; see core.Mechanisms.
type Mechanisms = core.Mechanisms

// AllMechanisms enables prefetching, merging and early MB eviction
// with CB split — the full AI-MT design.
func AllMechanisms() Mechanisms { return core.All() }

// NewAIMT returns the AI-MT scheduler with the given mechanism set.
func NewAIMT(cfg Config, m Mechanisms) *core.AIMT { return core.New(cfg, m) }

// PaperMixes returns the eight co-location scenarios of Figs 7/8/14.
func PaperMixes() []MixSpec { return workload.PaperMixes() }

// BuildMix compiles and load-balances a co-location scenario at the
// given batch size.
func BuildMix(cfg Config, spec MixSpec, batch int) (*Mix, error) {
	return workload.Build(cfg, spec, workload.BuildOptions{Batch: batch})
}

// SchedulerEntry names one registered scheduler and builds fresh
// instances per run; see sched.Entry.
type SchedulerEntry = sched.Entry

// SchedulerInput holds the per-run facts a scheduler factory reads
// (deadlines, class priorities, memory-intensive flags); see
// sched.Input.
type SchedulerInput = sched.Input

// Schedulers returns every registered scheduler — the paper's
// baselines, PREMA, the AI-MT ablation and the serving extensions — in
// comparison order.
func Schedulers() []SchedulerEntry { return sched.Registry() }

// SchedulerNames lists the registered scheduler names.
func SchedulerNames() []string { return sched.Names() }

// SchedulerByName resolves a registered scheduler from its name or an
// alias, ignoring case.
func SchedulerByName(name string) (SchedulerEntry, error) { return sched.ByName(name) }

// Serving subsystem (extension): open-loop streams, SLA tracking and
// load sweeps; see the internal/serve package.

// ServeClass is one request population of a serving mix; see
// serve.Class.
type ServeClass = serve.Class

// ServeStream is a generated open-loop request stream; see
// serve.Stream.
type ServeStream = serve.Stream

// ServeStreamOptions tunes stream generation; see serve.StreamOptions.
type ServeStreamOptions = serve.StreamOptions

// ServeReport summarizes one scheduler's run over a stream with
// streaming (bounded-memory) latency quantiles; see serve.Report.
type ServeReport = serve.Report

// ServeClassStats is one class's row in a serving report; see
// serve.ClassStats.
type ServeClassStats = serve.ClassStats

// ServeCurvePoint is one offered-load point of a load sweep; see
// serve.CurvePoint.
type ServeCurvePoint = serve.CurvePoint

// ServeCurveOptions tunes a load sweep; see serve.CurveOptions.
type ServeCurveOptions = serve.CurveOptions

// SchedulerSpec names a serving scheduler and builds fresh instances
// per run; see serve.SchedulerSpec.
type SchedulerSpec = serve.SchedulerSpec

// ServePhase tags a stream entry's request phase; see serve.Phase.
type ServePhase = serve.Phase

// Request phases for multi-phase (transformer) serving streams.
const (
	// ServeSinglePhase marks a classic one-shot request.
	ServeSinglePhase = serve.PhaseSingle
	// ServePrefillPhase marks a transformer request's prompt burst.
	ServePrefillPhase = serve.PhasePrefill
	// ServeDecodePhase marks one autoregressive decode iteration.
	ServeDecodePhase = serve.PhaseDecode
)

// ServePhaseStats is one phase's row in a serving report; see
// serve.PhaseStats.
type ServePhaseStats = serve.PhaseStats

// DefaultServingClasses returns the default mixed CNN/RNN serving mix.
func DefaultServingClasses() []ServeClass { return serve.DefaultClasses() }

// TransformerServingClasses returns the transformer/CNN serving mix:
// a chat class (prefill plus eight per-token-deadlined decode
// iterations) alongside the default CNN class.
func TransformerServingClasses() []ServeClass { return serve.TransformerClasses() }

// TransformerChatServeClass returns a small chat-style transformer
// class with the given decode iteration count and per-request batch
// size (concurrent sequences sharing each decode step's weight fetch).
func TransformerChatServeClass(decode, batch int) ServeClass {
	return serve.TransformerChatClass(decode, batch)
}

// NewServeStream generates a reproducible open-loop request stream
// with weighted class picks, Poisson or bursty arrivals, and
// per-request deadlines.
func NewServeStream(cfg Config, classes []ServeClass, opts ServeStreamOptions) (*ServeStream, error) {
	return serve.NewStream(cfg, classes, opts)
}

// ServeStandardSchedulers returns the serving comparison set: FIFO,
// PREMA, AI-MT and EDF.
func ServeStandardSchedulers() []SchedulerSpec { return serve.StandardSchedulers() }

// ServeSpec adapts a registered scheduler to a serving spec whose
// factory reads the stream's deadlines and class priorities.
func ServeSpec(e SchedulerEntry) SchedulerSpec { return serve.Spec(e) }

// ServeGaps converts offered loads (in single-chip capacities) into the
// mean inter-arrival gaps that offer them for a stream of these
// classes; see serve.Gaps.
func ServeGaps(cfg Config, classes []ServeClass, loads ...float64) ([]Cycles, error) {
	return serve.Gaps(cfg, classes, loads...)
}

// ServeRun simulates one stream under one scheduler and reports SLA
// attainment and tail latency.
func ServeRun(cfg Config, s *ServeStream, sch Scheduler, opts RunOptions) (*ServeReport, error) {
	return serve.Serve(cfg, s, sch, opts)
}

// ServeLoadCurve sweeps offered load from light traffic to saturation,
// running every scheduler on identical request sequences, and returns
// a latency-vs-throughput curve per scheduler.
func ServeLoadCurve(cfg Config, classes []ServeClass, schedulers []SchedulerSpec, opts ServeCurveOptions) ([]ServeCurvePoint, error) {
	return serve.LoadCurve(cfg, classes, schedulers, opts)
}

// BuildServeReportShed folds a simulation result into a report where
// admission control shed some requests; see serve.BuildReportShed.
func BuildServeReportShed(s *ServeStream, res *Result, shed []bool) *ServeReport {
	return serve.BuildReportShed(s, res, shed)
}

// ServeProcess selects a stream's arrival process; see serve.Process.
type ServeProcess = serve.Process

// Arrival processes for ServeStreamOptions.Process.
const (
	ServePoisson = serve.Poisson
	ServeBursty  = serve.Bursty
)

// PrintServeCurve renders a load sweep as one table per offered-load
// point.
func PrintServeCurve(w io.Writer, points []ServeCurvePoint) error {
	return serve.PrintCurve(w, points)
}

// Cluster serving (extension): N independent chip engines behind a
// request dispatcher with pluggable routing policies; see the
// internal/cluster package.

// ClusterPolicy routes requests to chips; see cluster.Policy.
type ClusterPolicy = cluster.Policy

// ClusterPolicySpec names a routing policy and builds fresh instances;
// see cluster.Spec.
type ClusterPolicySpec = cluster.Spec

// ClusterOptions tunes one cluster serving run; see cluster.Options.
type ClusterOptions = cluster.Options

// ClusterResult is one policy's cluster serving outcome with per-chip
// and aggregate reports; see cluster.Result.
type ClusterResult = cluster.Result

// ClusterCurveOptions tunes a cluster load sweep; see
// cluster.CurveOptions.
type ClusterCurveOptions = cluster.CurveOptions

// ClusterCurvePoint is one offered-load point of a cluster sweep; see
// cluster.CurvePoint.
type ClusterCurvePoint = cluster.CurvePoint

// ClusterControl configures the cluster's overload control plane:
// SLO-aware admission shedding and elastic autoscaling with
// hysteresis; see cluster.Control. The zero value disables it and the
// serve path is bit-identical to the uncontrolled cluster.
type ClusterControl = cluster.Control

// ClusterPolicies returns the routing policies compared by default:
// round-robin, least-work, class-affinity and deadline.
func ClusterPolicies() []ClusterPolicySpec { return cluster.Policies() }

// ClusterPolicyNames lists every routing policy name, the opt-in
// predictive policy included.
func ClusterPolicyNames() []string { return cluster.Names() }

// ClusterPolicyByName resolves any routing policy spec from its name,
// ignoring case.
func ClusterPolicyByName(name string) (ClusterPolicySpec, error) { return cluster.ByName(name) }

// ClusterDispatch routes every request of a stream to a chip under the
// policy and returns the request-to-chip assignment.
func ClusterDispatch(s *ServeStream, pol ClusterPolicy, chips int) ([]int, error) {
	return cluster.Dispatch(s, pol, chips)
}

// ClusterServe routes a stream across a simulated multi-chip cluster
// and runs every chip's sub-stream on its own engine, reporting
// per-chip and aggregate tail latency, SLA misses and load imbalance.
func ClusterServe(cfg Config, s *ServeStream, spec SchedulerSpec, pol ClusterPolicy, opts ClusterOptions) (*ClusterResult, error) {
	return cluster.Serve(cfg, s, spec, pol, opts)
}

// ClusterLoadCurve sweeps offered load against a cluster, routing the
// identical request sequence under every policy at each point.
func ClusterLoadCurve(cfg Config, classes []ServeClass, spec SchedulerSpec, policies []ClusterPolicySpec, opts ClusterCurveOptions) ([]ClusterCurvePoint, error) {
	return cluster.LoadCurve(cfg, classes, spec, policies, opts)
}

// PrintClusterCurve renders a cluster load sweep as one aggregate
// table per offered-load point.
func PrintClusterCurve(w io.Writer, points []ClusterCurvePoint) error {
	return cluster.PrintCurve(w, points)
}

// PrintClusterChips renders one cluster result's per-chip breakdown.
func PrintClusterChips(w io.Writer, r *ClusterResult) error {
	return cluster.PrintChips(w, r)
}

// Live observability (extension): an opt-in instrumentation registry
// and scheduler decision ledger threaded through the simulator,
// serving and cluster paths; see internal/obs.

// ObsRegistry is a concurrency-safe registry of counters, gauges and
// histograms with Prometheus-text and JSON exposition; see
// obs.Registry.
type ObsRegistry = obs.Registry

// ObsLedger is a bounded ring of scheduler decisions (MB prefetches,
// CB merges, early evictions, CB splits) with cycle, network, SRAM
// occupancy and stall attribution; see obs.Ledger.
type ObsLedger = obs.Ledger

// ObsDecision is one ledger entry; see obs.Decision.
type ObsDecision = obs.Decision

// NewObsRegistry returns an empty observability registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsLedger returns a decision ledger retaining the last cap
// entries (<= 0 means obs.DefaultLedgerCap). Lifetime per-kind and
// per-stall counts survive ring eviction.
func NewObsLedger(cap int) *ObsLedger { return obs.NewLedger(cap) }

// ObsHandler returns the admin HTTP mux serving /metrics (Prometheus
// text), /healthz and /debug/snapshot for the registry and ledger;
// either may be nil.
func ObsHandler(reg *ObsRegistry, led *ObsLedger) *http.ServeMux { return obs.Handler(reg, led) }

// Run-history store (extension): an append-only JSONL store of
// bench/serve/cluster/sweep runs with filterable labels and
// per-metric rows, plus cross-run diffing and the /runs analytics
// dashboard; see internal/runstore and obs.AttachRuns.

// StoredRun is one recorded run: provenance labels plus metric rows;
// see runstore.Run.
type StoredRun = runstore.Run

// RunMetric is one measured value of a run; see runstore.Metric.
type RunMetric = runstore.Metric

// RunStore is an append-only run log under one directory, tolerant of
// torn trailing writes; see runstore.Store.
type RunStore = runstore.Store

// RunQuery filters runs by source and labels; see runstore.Query.
type RunQuery = runstore.Query

// RunDiff is a metric-by-metric comparison of two runs against a
// noise threshold; see runstore.Diff.
type RunDiff = runstore.Diff

// OpenRunStore loads (creating if needed) the run store under dir.
func OpenRunStore(dir string) (*RunStore, error) { return runstore.Open(dir) }

// LoadBenchHistory ingests BENCH_*.json artifacts matching the glob
// as seed run history, ordered by trailing number (BENCH_3 before
// BENCH_8 before BENCH_10).
func LoadBenchHistory(glob string) ([]StoredRun, error) { return runstore.LoadBenchGlob(glob) }

// DiffRuns compares new against old: ratios beyond noise in a
// metric's bad direction count as regressions.
func DiffRuns(old, new StoredRun, noise float64) *RunDiff { return runstore.DiffRuns(old, new, noise) }

// CurrentCommit returns the working tree's short git commit, or "".
func CurrentCommit() string { return runstore.CurrentCommit() }

// ObsAttachRuns registers the /runs HTML dashboard and /runs.json on
// an admin mux; src supplies the run set per request and led (may be
// nil) feeds the decision-timeline chart. Each extra supplies one
// additional HTML section per request (e.g. the request-trace
// exemplar waterfall from RequestTraceStore.WaterfallHTML).
func ObsAttachRuns(mux *http.ServeMux, src func() []StoredRun, led *ObsLedger, extras ...func() string) {
	obs.AttachRuns(mux, src, led, extras...)
}

// Request tracing (extension): per-request span traces with
// cycle-exact latency attribution, tail exemplars and an attribution
// report; see internal/rtrace.

// RequestTraceStore retains bounded request-trace state: worst-N tail
// exemplars per class, a sampled ring of recent spans, and running
// attribution aggregates; see rtrace.Store.
type RequestTraceStore = rtrace.Store

// RequestTraceOptions bounds a RequestTraceStore; see rtrace.Options.
type RequestTraceOptions = rtrace.Options

// RequestSpan is one request's end-to-end attributed trace; its
// segments sum exactly to its latency; see rtrace.RequestSpan.
type RequestSpan = rtrace.RequestSpan

// RequestSegment is one attributed share of a request's latency; see
// rtrace.Segment.
type RequestSegment = rtrace.Segment

// RequestAttribution is one row of the latency-attribution report;
// see rtrace.Attribution.
type RequestAttribution = rtrace.Attribution

// RequestTraceCollector buckets engine occupancy events by network
// instance for span attribution; it implements Tracer, so attach it
// via RunOptions.Tracer; see rtrace.Collector.
type RequestTraceCollector = rtrace.Collector

// RequestSegmentKinds lists the attribution segment labels in
// canonical report order.
var RequestSegmentKinds = rtrace.SegmentKinds

// NewRequestTraceStore returns a bounded request-trace store.
func NewRequestTraceStore(opt RequestTraceOptions) *RequestTraceStore { return rtrace.NewStore(opt) }

// NewRequestTraceCollector sizes a collector for a stream of nets
// instances.
func NewRequestTraceCollector(nets int) *RequestTraceCollector { return rtrace.NewCollector(nets) }

// BuildRequestSpans attributes every request of a finished run: the
// collector must have been the run's Tracer over the stream's nets.
// run labels the spans (e.g. "AI-MT@0.80").
func BuildRequestSpans(s *ServeStream, res *Result, run string, col *RequestTraceCollector) []RequestSpan {
	return rtrace.Build(serve.TraceInput(s, res, run), col)
}

// AttachRequestTraces registers the /requests JSON endpoint (the
// attribution report, tail exemplars and sampled recent spans) on an
// admin mux.
func AttachRequestTraces(mux *http.ServeMux, st *RequestTraceStore) { rtrace.Attach(mux, st) }

// PrintRequestAttribution renders the latency-attribution report as
// text tables.
func PrintRequestAttribution(w io.Writer, rows []RequestAttribution) error {
	return rtrace.PrintAttribution(w, rows)
}

// ClusterTraceRun is the outcome of ClusterTraceRequests: result,
// span store and merged Perfetto tracks; see cluster.TraceRun.
type ClusterTraceRun = cluster.TraceRun

// ClusterTraceRequests runs a fixed-seed serving stream across a
// cluster with request tracing and engine tracing on, and assembles
// the merged Perfetto track set (chip occupancy overlaid with tail
// exemplar request tracks); see cluster.TraceRequests.
func ClusterTraceRequests(cfg Config, classes []ServeClass, spec SchedulerSpec, requests, chips int, load float64, seed int64) (*ClusterTraceRun, error) {
	return cluster.TraceRequests(cfg, classes, spec, requests, chips, load, seed)
}

// RecordServeCurve appends one run per (load point, scheduler) of a
// serving load sweep to the store; see serve.RecordCurve.
func RecordServeCurve(st *RunStore, mix, process, commit string, points []ServeCurvePoint) ([]StoredRun, error) {
	return serve.RecordCurve(st, mix, process, commit, points)
}

// RecordClusterCurve appends one run per (load point, routing policy)
// of a cluster sweep to the store; see cluster.RecordCurve.
func RecordClusterCurve(st *RunStore, mix, process, commit string, points []ClusterCurvePoint) ([]StoredRun, error) {
	return cluster.RecordCurve(st, mix, process, commit, points)
}

// RecordSweepOutcomes appends one run per successful sweep outcome to
// the store; see sweep.RecordOutcomes.
func RecordSweepOutcomes(st *RunStore, commit string, labels map[string]string, outs []SweepOutcome) ([]StoredRun, error) {
	return sweep.RecordOutcomes(st, commit, labels, outs)
}
