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

// ErrInvariant wraps every violation the opt-in machine-model
// invariant checker (RunOptions.CheckInvariants) reports; see
// sim.ErrInvariant.
var ErrInvariant = sim.ErrInvariant

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

// ServeStreamOptions tunes stream generation; see serve.StreamOptions.
type ServeStreamOptions = serve.StreamOptions

// ServeReport summarizes one scheduler's run over a stream with
// streaming (bounded-memory) latency quantiles; see serve.Report.
type ServeReport = serve.Report

// SchedulerSpec names a serving scheduler and builds fresh instances
// per run; see serve.SchedulerSpec.
type SchedulerSpec = serve.SchedulerSpec

// Request phases for multi-phase (transformer) serving streams.
const (
	// ServeSinglePhase marks a classic one-shot request.
	ServeSinglePhase = serve.PhaseSingle
	// ServePrefillPhase marks a transformer request's prompt burst.
	ServePrefillPhase = serve.PhasePrefill
	// ServeDecodePhase marks one autoregressive decode iteration.
	ServeDecodePhase = serve.PhaseDecode
)

// DefaultServingClasses returns the default mixed CNN/RNN serving mix.
func DefaultServingClasses() []ServeClass { return serve.DefaultClasses() }

// TransformerServingClasses returns the transformer/CNN serving mix:
// a chat class (prefill plus eight per-token-deadlined decode
// iterations) alongside the default CNN class.
func TransformerServingClasses() []ServeClass { return serve.TransformerClasses() }

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

// Arrival processes for ServeStreamOptions.Process.
const (
	ServePoisson = serve.Poisson
	ServeBursty  = serve.Bursty
)

// Cluster serving (extension): N independent chip engines behind a
// request dispatcher with pluggable routing policies; see the
// internal/cluster package.

// ClusterPolicySpec names a routing policy and builds fresh instances;
// see cluster.Spec.
type ClusterPolicySpec = cluster.Spec

// ClusterOptions tunes one cluster serving run; see cluster.Options.
type ClusterOptions = cluster.Options

// ClusterControl configures the cluster's overload control plane:
// SLO-aware admission shedding and elastic autoscaling with
// hysteresis; see cluster.Control. The zero value disables it.
type ClusterControl = cluster.Control

// ClusterPolicies returns the routing policies compared by default:
// round-robin, least-work and class-affinity.
func ClusterPolicies() []ClusterPolicySpec { return cluster.Policies() }

// ClusterPolicyNames lists every routing policy name, one per routing
// behaviour, the opt-in predictive policy included. Aliases such as
// deadline (least-work) resolve through ClusterPolicyByName but are
// not listed.
func ClusterPolicyNames() []string { return cluster.Names() }

// ClusterPolicyByName resolves any routing policy spec from its name
// or an alias, ignoring case.
func ClusterPolicyByName(name string) (ClusterPolicySpec, error) { return cluster.ByName(name) }

// Load sweeps (extension): one planner runs load points × schedulers ×
// routes, where an unrouted run is the single-chip serve path; see
// cluster.Sweep.

// ServeSweepOptions tunes a load sweep: stream shape, gaps, routes and
// the run-wide options; see cluster.SweepOptions.
type ServeSweepOptions = cluster.SweepOptions

// ClusterRoute is one cluster shape of a sweep, a routing policy over
// a chip count; see cluster.Route.
type ClusterRoute = cluster.Route

// ServeCurvePoint is one offered-load point of a sweep; see
// cluster.CurvePoint.
type ServeCurvePoint = cluster.CurvePoint

// ServeSweep runs every scheduler under every route (unrouted on one
// chip when opts.Routes is empty) on identical request sequences at
// each offered-load point, from light traffic to saturation by
// default.
func ServeSweep(cfg Config, classes []ServeClass, schedulers []SchedulerSpec, opts ServeSweepOptions) ([]ServeCurvePoint, error) {
	return cluster.Sweep(cfg, classes, schedulers, opts)
}

// PrintServeCurve renders a sweep as one table per offered-load point.
func PrintServeCurve(w io.Writer, points []ServeCurvePoint) error {
	return cluster.PrintCurve(w, points)
}

// RecordServeCurve appends one run per (load point, result) of a sweep
// to the store: "serve" runs for unrouted results, "cluster" runs for
// routed ones; see cluster.RecordCurve.
func RecordServeCurve(st *RunStore, mix, process, commit string, points []ServeCurvePoint) ([]StoredRun, error) {
	return cluster.RecordCurve(st, mix, process, commit, points)
}

// PrintClusterChips renders one cluster result's per-chip breakdown.
func PrintClusterChips(w io.Writer, r *cluster.Result) error {
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

// RunStore is an append-only run log under one directory, tolerant of
// torn trailing writes; see runstore.Store.
type RunStore = runstore.Store

// OpenRunStore loads (creating if needed) the run store under dir.
func OpenRunStore(dir string) (*RunStore, error) { return runstore.Open(dir) }

// LoadBenchHistory ingests BENCH_*.json artifacts matching the glob
// as seed run history, ordered by trailing number (BENCH_3 before
// BENCH_8 before BENCH_10).
func LoadBenchHistory(glob string) ([]StoredRun, error) { return runstore.LoadBenchGlob(glob) }

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

// RequestAttribution is one row of the latency-attribution report;
// see rtrace.Attribution.
type RequestAttribution = rtrace.Attribution

// NewRequestTraceStore returns a bounded request-trace store.
func NewRequestTraceStore(opt RequestTraceOptions) *RequestTraceStore { return rtrace.NewStore(opt) }

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
// cluster with request tracing on, and assembles the merged Perfetto
// track set (chip occupancy overlaid with tail
// exemplar request tracks); see cluster.TraceRequests.
func ClusterTraceRequests(cfg Config, classes []ServeClass, spec SchedulerSpec, requests, chips int, load float64, seed int64) (*ClusterTraceRun, error) {
	return cluster.TraceRequests(cfg, classes, spec, requests, chips, load, seed)
}
