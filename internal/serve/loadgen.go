// Package serve is the streaming serving subsystem: open-loop request
// generation (Poisson and bursty arrivals over a weighted model mix,
// with per-request deadlines), SLA-tracking reports built on the
// streaming quantile estimator, and a load-sweep driver that walks
// offered load from light traffic to saturation and emits a
// latency-vs-throughput curve per scheduler.
//
// Memory stays bounded in the stream length: a report holds an
// O(buckets) hdr.Histogram plus a handful of counters, never the
// per-request latency slice, so sweeps of hundreds of thousands of
// requests are routine.
package serve

import (
	"fmt"
	"math/rand"
	"sort"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/nn"
)

// Phase identifies a request phase in a stream. Single-phase classes
// (the CNN/RNN default) emit one PhaseSingle entry per request;
// transformer classes emit one PhasePrefill entry followed by
// Class.Decode chained PhaseDecode entries.
type Phase uint8

const (
	// PhaseSingle is the whole of an ordinary one-shot request.
	PhaseSingle Phase = iota

	// PhasePrefill is a transformer request's prompt pass.
	PhasePrefill

	// PhaseDecode is one autoregressive decode iteration (one generated
	// token per sequence in the batch).
	PhaseDecode
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseSingle:
		return "single"
	case PhasePrefill:
		return "prefill"
	case PhaseDecode:
		return "decode"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Class is one request population in a serving mix: a model, how often
// it is requested, and how tight its latency SLA is.
type Class struct {
	// Name labels the class in reports; empty means the network name.
	Name string

	// Net is the model served for this class. For a transformer class
	// (DecodeNet set) this is the prefill pass.
	Net *nn.Network

	// DecodeNet, when non-nil, makes this a two-phase transformer
	// class: each request runs Net once (prefill) and then DecodeNet
	// Decode times, every iteration chained after the previous phase.
	DecodeNet *nn.Network

	// Decode is the decode iteration count per request — the number of
	// generated tokens per sequence. Only meaningful with DecodeNet;
	// zero emits a prefill-only request (useful as a differential
	// anchor against the equivalent single-phase class).
	Decode int

	// TokenSlack scales each decode iteration's deadline budget: decode
	// k of a request must finish by the prefill deadline plus
	// k x TokenSlack x (isolated decode service estimate) — a per-token
	// SLA, as user-facing text generation requires. Zero or negative
	// means the class Slack.
	TokenSlack float64

	// Weight is the class's relative request frequency; zero or
	// negative means 1.
	Weight float64

	// Slack scales the class's deadline: a request arriving at cycle t
	// must finish by t + Slack x (isolated service estimate). Zero or
	// negative means defaultSlack.
	Slack float64

	// Batch is the per-request batch size; zero means 1.
	Batch int

	// Priority is the class's scheduling priority for the overload
	// control plane: higher is more urgent. Requests of a strictly
	// higher class may preempt executing lower-class work on chip, and
	// admission control sheds only the lowest band when saturated.
	// Uniform priorities (including the zero default everywhere)
	// disable priority effects entirely.
	Priority int
}

// defaultSlack is the deadline multiplier applied to a class's
// isolated service estimate when the class does not set its own.
const defaultSlack = 8

// DefaultClasses returns the default mixed CNN/RNN serving mix: a
// small convolutional vision model (three requests out of four, tight
// SLA) alongside a stacked fully connected recurrent-style model (one
// in four, memory-intensive, looser SLA). The models are deliberately
// small so saturation sweeps of tens of thousands of requests finish
// in seconds.
func DefaultClasses() []Class {
	cnn := nn.NewBuilder("serve-cnn", 3, 32, 32)
	cnn.Conv("conv1", 32, 3, 1, 1)
	cnn.Pool("pool1", 2, 2, 0)
	cnn.Conv("conv2", 64, 3, 1, 1)
	cnn.GlobalPool("gap")
	cnn.FC("fc", 10)

	rnn := nn.NewBuilder("serve-rnn", 256, 1, 1)
	rnn.FC("cell1", 512)
	rnn.FC("cell2", 512)
	rnn.FC("proj", 256)

	return []Class{
		{Name: "cnn", Net: cnn.MustBuild(), Weight: 3, Slack: 6},
		{Name: "rnn", Net: rnn.MustBuild(), Weight: 1, Slack: 10},
	}
}

// TransformerChatClass returns a GPT-style "chat" class sized for fast
// sweeps: a 2-block, 64-wide transformer whose requests run one
// 16-token prefill pass and then decode generated tokens one at a
// time, each against the full KV cache (prompt plus generation) and
// each with its own per-token deadline. The compute-heavy prefill and
// memory-bound decode phases are the transformer half of the MB/CB
// intensity-mismatch story.
func TransformerChatClass(decode, batch int) Class {
	const (
		hidden = 64
		heads  = 4
		ffn    = 128
		vocab  = 128
		prompt = 16
	)
	prefill := nn.MustTransformer(nn.TransformerConfig{
		Name: "chat-prefill", Blocks: 2, Hidden: hidden, Heads: heads,
		FFN: ffn, OutProj: vocab, SeqLen: prompt, Context: prompt,
	})
	dec := nn.MustTransformer(nn.TransformerConfig{
		Name: "chat-decode", Blocks: 2, Hidden: hidden, Heads: heads,
		FFN: ffn, OutProj: vocab, SeqLen: 1, Context: prompt + decode,
	})
	return Class{
		Name: "chat", Net: prefill, DecodeNet: dec, Decode: decode,
		Batch: batch, Slack: 6, TokenSlack: 8,
	}
}

// TransformerClasses returns the transformer-vs-CNN serving mix: the
// chat class (8 generated tokens per request) alongside the default
// CNN vision class, weighted toward chat.
func TransformerClasses() []Class {
	cnn := DefaultClasses()[0]
	cnn.Weight = 1
	chat := TransformerChatClass(8, 1)
	chat.Weight = 2
	return []Class{chat, cnn}
}

// Process selects the arrival process of a stream.
type Process int

const (
	// Poisson draws independent exponential inter-arrival gaps.
	Poisson Process = iota

	// Bursty emits geometric back-to-back bursts separated by long
	// exponential silences, with the same mean rate as Poisson at the
	// same MeanGap.
	Bursty
)

func (p Process) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	}
	return fmt.Sprintf("process(%d)", int(p))
}

// StreamOptions tune NewStream.
type StreamOptions struct {
	// Requests is the stream length; zero means 1024.
	Requests int

	// Process is the arrival process; the zero value is Poisson.
	Process Process

	// MeanGap is the mean inter-arrival time in cycles; zero means
	// 20000 (20 us at 1 GHz). Offered load scales inversely with it.
	MeanGap arch.Cycles

	// BurstLen is the mean burst size for the Bursty process; zero
	// means 8. Ignored under Poisson.
	BurstLen int

	// Seed makes the stream reproducible. Streams built from the same
	// classes and seed contain the same request sequence at every
	// MeanGap — only the gaps scale — so load-curve points are
	// directly comparable.
	Seed int64
}

// compiledClass is a Class lowered to the target config.
type compiledClass struct {
	name    string
	net     *compiler.CompiledNetwork
	slack   float64
	service arch.Cycles // isolated service estimate (prefill for two-phase)
	prio    int
	batch   int

	// Two-phase (transformer) classes only.
	decode      *compiler.CompiledNetwork
	decodeIters int
	decodeSvc   arch.Cycles // isolated service estimate of one iteration
	tokenBudget arch.Cycles // per-token deadline increment
}

// Stream is a generated open-loop request stream ready to simulate.
// Each entry is one simulated network instance — a whole request for
// single-phase classes, one phase for transformer classes — with
// arrival cycles and absolute deadlines indexed alike. A request's
// phases share its arrival; the simulator's phase chaining
// (sim.Options.ChainAfter) delays each decode entry until its
// predecessor finishes.
type Stream struct {
	// Name labels the stream.
	Name string

	// Nets holds each entry's compiled network in arrival order.
	Nets []*compiler.CompiledNetwork

	// Arrivals gives each entry's arrival cycle (non-decreasing).
	Arrivals []arch.Cycles

	// Deadlines gives each entry's absolute deadline. Single-phase and
	// prefill entries get arrival + slack x isolated service estimate;
	// decode entry k of a request gets the request's prefill deadline
	// plus k x TokenSlack x isolated decode estimate (a per-token SLA).
	Deadlines []arch.Cycles

	// ClassOf gives each entry's index into Classes.
	ClassOf []int

	// ReqOf gives each entry's request id (dense, 0-based, ascending);
	// nil for streams without transformer classes, where entry index
	// and request id coincide.
	ReqOf []int

	// PhaseOf gives each entry's phase; nil for streams without
	// transformer classes (every entry PhaseSingle).
	PhaseOf []Phase

	// ChainAfter gives each entry's predecessor entry index (-1 for
	// request heads), in the shape sim.Options.ChainAfter expects; nil
	// for streams without transformer classes.
	ChainAfter []int

	// Requests is the request count; len(Nets) for single-phase
	// streams, smaller than len(Nets) when decode phases are present.
	Requests int

	// Classes names the request classes, in Class order.
	Classes []string

	// ClassService gives each class's isolated service estimate
	// (prefill estimate for transformer classes), indexed like
	// Classes — the unit of outstanding work a cluster dispatcher
	// accounts per routed request head.
	ClassService []arch.Cycles

	// ClassDecodeService gives each class's isolated decode-iteration
	// service estimate, indexed like Classes; zero for single-phase
	// classes.
	ClassDecodeService []arch.Cycles

	// ClassBatch gives each class's compiled batch size, indexed like
	// Classes — the tokens generated per completed decode entry.
	ClassBatch []int

	// ClassPriority gives each class's scheduling priority, indexed
	// like Classes (higher is more urgent; see Class.Priority).
	ClassPriority []int

	// MeanService is the weight-averaged isolated service estimate of
	// one whole request (prefill plus all decode iterations), the
	// numerator of offered load.
	MeanService float64

	// MeanGap echoes the generating option after defaulting.
	MeanGap arch.Cycles
}

// OfferedLoad returns the stream's nominal utilization demand: the
// mean per-request service estimate over the mean inter-arrival gap.
// Values past ~1 mean the bottleneck engine cannot keep up and queues
// grow without bound — saturation.
func (s *Stream) OfferedLoad() float64 {
	if s.MeanGap <= 0 {
		return 0
	}
	return s.MeanService / float64(s.MeanGap)
}

// NetClasses returns the per-request class names, indexed like Nets —
// the shape sim.Options.NetClasses expects for live per-class
// in-flight gauges.
func (s *Stream) NetClasses() []string {
	out := make([]string, len(s.ClassOf))
	for i, ci := range s.ClassOf {
		out[i] = s.Classes[ci]
	}
	return out
}

// netPriorities returns the per-request class priorities, indexed like
// Nets — the shape core.AIMT.SetPreemptPriorities expects for
// cross-request preemption.
func (s *Stream) netPriorities() []int {
	out := make([]int, len(s.ClassOf))
	for i, ci := range s.ClassOf {
		if ci < len(s.ClassPriority) {
			out[i] = s.ClassPriority[ci]
		}
	}
	return out
}

// EntryService returns entry i's isolated service estimate: the class
// decode estimate for decode entries, the class (prefill) estimate
// otherwise — the unit of outstanding work a dispatcher accounts for
// routing entry i.
func (s *Stream) EntryService(i int) arch.Cycles {
	ci := s.ClassOf[i]
	if s.PhaseOf != nil && s.PhaseOf[i] == PhaseDecode && ci < len(s.ClassDecodeService) {
		return s.ClassDecodeService[ci]
	}
	if ci < len(s.ClassService) {
		return s.ClassService[ci]
	}
	return 0
}

// SubStream returns the stream restricted to the given entry indices,
// which must be ascending and in range. Arrival order (and therefore
// the non-decreasing arrival invariant) is preserved, so the result is
// itself a valid stream — this is how a cluster dispatcher turns one
// front-door stream into per-chip streams. For streams with phases the
// indices must be request-closed: every decode entry's predecessor
// must be included too (a dispatcher routes whole requests), and
// SubStream returns an error otherwise. Class metadata, MeanService and MeanGap
// are inherited from the parent; per-entry slices are fresh copies
// (ReqOf keeps the parent's request ids; ChainAfter is remapped to
// local indices: a predecessor must come before its decode entry).
func (s *Stream) SubStream(name string, indices []int) (*Stream, error) {
	sub := &Stream{
		Name:               name,
		Classes:            s.Classes,
		ClassService:       s.ClassService,
		ClassDecodeService: s.ClassDecodeService,
		ClassBatch:         s.ClassBatch,
		ClassPriority:      s.ClassPriority,
		MeanService:        s.MeanService,
		MeanGap:            s.MeanGap,
		Requests:           len(indices),
		Nets:               make([]*compiler.CompiledNetwork, len(indices)),
		Arrivals:           make([]arch.Cycles, len(indices)),
		Deadlines:          make([]arch.Cycles, len(indices)),
		ClassOf:            make([]int, len(indices)),
	}
	for i, gi := range indices {
		sub.Nets[i] = s.Nets[gi]
		sub.Arrivals[i] = s.Arrivals[gi]
		sub.Deadlines[i] = s.Deadlines[gi]
		sub.ClassOf[i] = s.ClassOf[gi]
	}
	if s.ChainAfter != nil {
		sub.ReqOf = make([]int, len(indices))
		sub.PhaseOf = make([]Phase, len(indices))
		sub.ChainAfter = make([]int, len(indices))
		sub.Requests = 0
		for i, gi := range indices {
			sub.ReqOf[i] = s.ReqOf[gi]
			sub.PhaseOf[i] = s.PhaseOf[gi]
			if p := s.ChainAfter[gi]; p >= 0 {
				// NewStream lays a request's phases out contiguously, so
				// the predecessor is almost always the previous index;
				// a hand-built chain falls back to a binary search.
				lp := i - 1
				if lp < 0 || indices[lp] != p {
					lp = sort.SearchInts(indices[:i], p)
				}
				if lp == i || indices[lp] != p {
					return nil, fmt.Errorf("serve: SubStream %q: entry %d chained after %d, which is not included", name, gi, p)
				}
				sub.ChainAfter[i] = lp
			} else {
				sub.ChainAfter[i] = -1
				sub.Requests++
			}
		}
	}
	return sub, nil
}

// serviceEstimate approximates a request's isolated latency: the
// occupancy of the bottleneck engine plus host feature movement. It
// only anchors deadlines, so a coarse estimate is fine.
func serviceEstimate(cfg arch.Config, cn *compiler.CompiledNetwork) arch.Cycles {
	s := cn.Stats()
	est := s.CBCycles
	if s.MBCycles > est {
		est = s.MBCycles
	}
	return est + cfg.HostCycles(cn.HostInBytes) + cfg.HostCycles(cn.HostOutBytes)
}

// compiledMix is a class list lowered to one config: the classes
// NewStream draws requests from, and the weight-averaged service
// estimate Gaps turns offered loads into arrival gaps with.
type compiledMix struct {
	classes []compiledClass
	weights []float64
	totalW  float64
	// meanService is the weight-averaged isolated service estimate of
	// one whole request (prefill plus all decode iterations).
	meanService float64
	// phased notes that some class has a decode phase.
	phased bool
}

// checkValidated rejects a config that arch.Config.Validate would still
// change or refuse. An unvalidated preset (FillLatency 0) compiles
// without error but gives other service estimates, so every deadline
// and every load-to-gap conversion would silently move.
func checkValidated(cfg arch.Config) error {
	v := cfg
	if err := v.Validate(); err != nil {
		return fmt.Errorf("serve: invalid config: %w", err)
	}
	if v != cfg {
		return fmt.Errorf("serve: config not validated (FillLatency %d): call arch.Config.Validate first", cfg.FillLatency)
	}
	return nil
}

// compileClasses compiles every class for cfg and derives the mix's
// mean service estimate.
func compileClasses(cfg arch.Config, classes []Class) (*compiledMix, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("serve: empty class list")
	}
	if err := checkValidated(cfg); err != nil {
		return nil, err
	}
	m := &compiledMix{classes: make([]compiledClass, 0, len(classes))}
	for i, c := range classes {
		if c.Net == nil {
			return nil, fmt.Errorf("serve: class %d has no network", i)
		}
		batch := c.Batch
		if batch <= 0 {
			batch = 1
		}
		cn, err := compiler.Compile(c.Net, cfg, batch)
		if err != nil {
			return nil, fmt.Errorf("serve: class %q: %w", c.Net.Name, err)
		}
		cc := compiledClass{name: c.Name, net: cn, slack: c.Slack, prio: c.Priority, batch: batch}
		if cc.name == "" {
			cc.name = c.Net.Name
		}
		if cc.slack <= 0 {
			cc.slack = defaultSlack
		}
		cc.service = serviceEstimate(cfg, cn)
		if c.DecodeNet != nil {
			m.phased = true
			dn, err := compiler.Compile(c.DecodeNet, cfg, batch)
			if err != nil {
				return nil, fmt.Errorf("serve: class %q decode: %w", c.DecodeNet.Name, err)
			}
			cc.decode = dn
			if c.Decode > 0 {
				cc.decodeIters = c.Decode
			}
			cc.decodeSvc = serviceEstimate(cfg, dn)
			ts := c.TokenSlack
			if ts <= 0 {
				ts = cc.slack
			}
			cc.tokenBudget = arch.Cycles(ts * float64(cc.decodeSvc))
		}
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		m.classes = append(m.classes, cc)
		m.weights = append(m.weights, w)
		m.totalW += w
		m.meanService += w * float64(cc.service+arch.Cycles(cc.decodeIters)*cc.decodeSvc)
	}
	m.meanService /= m.totalW
	return m, nil
}

// Gaps converts offered loads into the mean inter-arrival gaps that
// offer them for a stream of these classes: the mix's mean service
// estimate over each load, at least one cycle. Loads are in single-chip
// capacities, so a cluster of N chips at per-chip load L passes L*N.
// cfg must have been through arch.Config.Validate.
func Gaps(cfg arch.Config, classes []Class, loads ...float64) ([]arch.Cycles, error) {
	m, err := compileClasses(cfg, classes)
	if err != nil {
		return nil, err
	}
	gaps := make([]arch.Cycles, len(loads))
	for i, load := range loads {
		if !(load > 0) {
			return nil, fmt.Errorf("serve: offered load %v must be positive", load)
		}
		gaps[i] = max(arch.Cycles(m.meanService/load), 1)
	}
	return gaps, nil
}

// NewStream compiles the classes for cfg and draws a reproducible
// open-loop request stream: weighted class picks, arrival gaps from
// the chosen process, and per-request deadlines. cfg must have been
// through arch.Config.Validate.
//
// Every per-entry slice is allocated once, at its final length: a
// single-phase stream has exactly Requests entries, and a phased one
// learns its entry count from a counting pass that replays the same
// draws from a second generator with the same seed.
func NewStream(cfg arch.Config, classes []Class, opts StreamOptions) (*Stream, error) {
	m, err := compileClasses(cfg, classes)
	if err != nil {
		return nil, err
	}
	return m.stream(opts), nil
}

// stream draws a stream from the compiled mix; see NewStream.
func (m *compiledMix) stream(opts StreamOptions) *Stream {
	if opts.Requests <= 0 {
		opts.Requests = 1024
	}
	if opts.MeanGap <= 0 {
		opts.MeanGap = 20000
	}
	if opts.BurstLen <= 0 {
		opts.BurstLen = 8
	}
	s := &Stream{
		Name:        fmt.Sprintf("%s-load%.2f", opts.Process, m.meanService/float64(opts.MeanGap)),
		MeanService: m.meanService,
		MeanGap:     opts.MeanGap,
		Requests:    opts.Requests,
	}
	for _, cc := range m.classes {
		s.Classes = append(s.Classes, cc.name)
		s.ClassService = append(s.ClassService, cc.service)
		s.ClassDecodeService = append(s.ClassDecodeService, cc.decodeSvc)
		s.ClassBatch = append(s.ClassBatch, cc.batch)
		s.ClassPriority = append(s.ClassPriority, cc.prio)
	}

	n := opts.Requests
	if m.phased {
		n = 0
		d := newDrawer(m, opts)
		for range opts.Requests {
			ci, _ := d.next()
			n += 1 + m.classes[ci].decodeIters
		}
		s.ReqOf = make([]int, n)
		s.PhaseOf = make([]Phase, n)
		s.ChainAfter = make([]int, n)
	}
	s.Nets = make([]*compiler.CompiledNetwork, n)
	s.Arrivals = make([]arch.Cycles, n)
	s.Deadlines = make([]arch.Cycles, n)
	s.ClassOf = make([]int, n)

	d := newDrawer(m, opts)
	e := 0 // next entry
	for i := range opts.Requests {
		ci, t := d.next()
		cc := m.classes[ci]
		head := e
		headDeadline := t + arch.Cycles(cc.slack*float64(cc.service))
		s.Nets[e], s.Arrivals[e], s.Deadlines[e], s.ClassOf[e] = cc.net, t, headDeadline, ci
		e++
		if !m.phased {
			continue
		}
		s.ReqOf[head], s.ChainAfter[head] = i, -1
		if cc.decode != nil {
			s.PhaseOf[head] = PhasePrefill
		}
		// Decode iterations share the request's arrival cycle; the
		// simulator chains each one after its predecessor, and the
		// deadline ladder gives every token its own budget on top of
		// the prefill deadline.
		for k := 1; k <= cc.decodeIters; k++ {
			s.Nets[e], s.Arrivals[e], s.ClassOf[e] = cc.decode, t, ci
			s.Deadlines[e] = headDeadline + arch.Cycles(k)*cc.tokenBudget
			s.ReqOf[e], s.PhaseOf[e], s.ChainAfter[e] = i, PhaseDecode, e-1
			e++
		}
	}
	return s
}

// drawer replays a stream's random draws in generation order: each
// request's weighted class pick, then the gap to the next arrival.
// NewStream's counting pass and its filling pass each run one from the
// same seed, so both see the same requests.
type drawer struct {
	rng  *rand.Rand
	m    *compiledMix
	opts StreamOptions
	t    arch.Cycles // arrival cycle of the next request
}

func newDrawer(m *compiledMix, opts StreamOptions) *drawer {
	return &drawer{rng: rand.New(rand.NewSource(opts.Seed)), m: m, opts: opts}
}

// next draws one request: its class index and arrival cycle.
func (d *drawer) next() (int, arch.Cycles) {
	// Weighted class pick.
	pick := d.rng.Float64() * d.m.totalW
	ci := 0
	for ci < len(d.m.weights)-1 && pick >= d.m.weights[ci] {
		pick -= d.m.weights[ci]
		ci++
	}
	t := d.t

	// Next gap. Both processes have mean MeanGap so offered load is
	// process-independent; Bursty concentrates it into geometric
	// back-to-back trains separated by long silences.
	gap := float64(d.opts.MeanGap)
	switch d.opts.Process {
	case Bursty:
		burst := float64(d.opts.BurstLen)
		if d.rng.Float64() < 1/burst {
			d.t += arch.Cycles(d.rng.ExpFloat64() * gap * burst)
		}
	default:
		d.t += arch.Cycles(d.rng.ExpFloat64() * gap)
	}
	return ci, t
}
