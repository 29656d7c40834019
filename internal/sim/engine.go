package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/obs"
	"aimt/internal/sram"
)

// Tracer receives one call per completed (or halted) occupancy
// interval on each engine. Engines are "mem" (HBM channel), "pe"
// (PE-array complex) and "host" (PCIe link).
type Tracer interface {
	Event(engine, name string, net, layer, iter int, start, end arch.Cycles)
}

// Options tune a simulation run.
type Options struct {
	// Tracer, when non-nil, receives every occupancy interval.
	Tracer Tracer

	// MaxCycles aborts runs that exceed this simulated time; zero means
	// the default of 2e11 cycles.
	MaxCycles arch.Cycles

	// SchedulerLatency models a software implementation of the
	// scheduler (paper §IV-D): every memory-block issue pays this many
	// cycles of decision latency before the fetch begins, occupying
	// the channel's issue slot but not counting as transfer time. Zero
	// models the paper's hardware scheduler.
	SchedulerLatency arch.Cycles

	// Arrivals gives each network instance's arrival cycle, modelling
	// the cloud serving scenario where requests stream in over time.
	// A network is invisible to the scheduler — no candidates, no host
	// input transfer — before its arrival. Nil or short slices mean
	// arrival at cycle zero.
	Arrivals []arch.Cycles

	// ChainAfter chains network instances into multi-phase requests:
	// ChainAfter[i] = p (with 0 <= p < i) keeps instance i invisible
	// until instance p finishes, whereupon i arrives at
	// max(Arrivals[i], p's finish cycle). This is how a serving stream
	// expresses autoregressive decode: each decode iteration is an
	// instance chained after its predecessor, and Result.NetArrive
	// reports the effective arrival so per-phase latency is measured
	// from readiness, not enqueue. -1 (and entries beyond the slice)
	// means unchained; nil preserves the single-phase behaviour
	// bit-for-bit.
	ChainAfter []int

	// Metrics, when non-nil, receives live engine telemetry: block
	// and split counters, per-engine busy-cycle totals, SRAM
	// occupancy, the AVL_CB level, in-flight population and
	// utilization gauges (aimt_sim_* series). The engine gathers them
	// in plain run-local state and publishes them whenever Run or
	// StepUntil returns, so a scrape during a call sees the state of
	// the previous return; nil keeps the hot loop to a nil check per
	// site. Runs sharing a registry aggregate their counters; gauges
	// show the most recent publisher.
	Metrics *obs.Registry

	// Ledger, when non-nil, records every scheduler decision — MB
	// prefetches, ahead-of-execution CB claims (merges), early-
	// eviction capacity reservations and CB splits — with its cycle,
	// block, SRAM occupancy and stall attribution. Decisions are
	// logged run-local and folded in, in order, whenever Run or
	// StepUntil returns, so runs sharing a ledger land contiguously
	// per call.
	Ledger *obs.Ledger

	// NetClasses, when set alongside Metrics, labels each network
	// instance with its request class; the engine then exports a live
	// per-class in-flight gauge (aimt_sim_inflight{class="..."}).
	// Shorter slices leave the remaining nets unlabeled. The serving
	// layer fills this from its stream's class table.
	NetClasses []string

	// CheckInvariants validates the machine-model invariants at every
	// engine event against an independent shadow of the machine state:
	// the HBM channel and PE complex each execute one block at a time,
	// SRAM occupancy never exceeds capacity (the checker drives the
	// paper's free list and per-layer block chains from the event
	// stream, and each chain and the engine's occupancy counter must
	// agree with it), no compute block starts before its memory
	// blocks and predecessor layers complete, event time is monotonic,
	// split/resume conserves compute-block work, and the incrementally
	// maintained candidate frontiers match a brute-force rescan of
	// every layer. Violations abort the run with an error wrapping
	// ErrInvariant. Slow; intended for tests and the sweep engine's
	// verification mode.
	CheckInvariants bool
}

// Result summarizes one simulation run.
type Result struct {
	// Scheduler is the policy name.
	Scheduler string

	// Makespan is the cycle at which the last network (including its
	// host output transfer) completed.
	Makespan arch.Cycles

	// MemBusy, PEBusy and HostBusy are total occupied cycles per engine.
	MemBusy, PEBusy, HostBusy arch.Cycles

	// MBCount and CBCount are completed block counts; Splits counts
	// compute-block halts; Resumes counts restarted remnants.
	MBCount, CBCount, Splits int

	// NetNames, NetArrive and NetFinish give, per network instance,
	// its name, arrival cycle and completion cycle; latency is
	// NetFinish[i] - NetArrive[i].
	NetNames  []string
	NetArrive []arch.Cycles
	NetFinish []arch.Cycles

	// SRAMPeakBlocks is the high-water mark of weight-SRAM occupancy.
	SRAMPeakBlocks int

	// BlockBytes converts SRAMPeakBlocks to bytes.
	BlockBytes arch.Bytes
}

// MemUtilization returns HBM-channel occupancy over the makespan.
func (r *Result) MemUtilization() float64 { return ratio(r.MemBusy, r.Makespan) }

// PEUtilization returns PE-complex occupancy over the makespan.
func (r *Result) PEUtilization() float64 { return ratio(r.PEBusy, r.Makespan) }

// SRAMPeakBytes returns the weight-SRAM high-water mark in bytes.
func (r *Result) SRAMPeakBytes() arch.Bytes {
	return arch.Bytes(r.SRAMPeakBlocks) * r.BlockBytes
}

func ratio(a, b arch.Cycles) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Run errors.
var (
	ErrDeadlock  = errors.New("sim: deadlock — no engine busy and work remains")
	ErrTimeLimit = errors.New("sim: exceeded MaxCycles")
)

type hostXfer struct {
	net    int
	output bool
	cycles arch.Cycles
}

// linkState is the Engine's mutable host-link and arrival scalars,
// grouped so a snapshot copies them whole: the host link's queue head
// and in-flight transfer, and the arrival cursor.
type linkState struct {
	hostHead int
	hostBusy bool
	hostEnd  arch.Cycles
	curHost  hostXfer

	nextArrival int
}

// Engine is one simulation in progress: the machine state (View), the
// scheduler driving it, and the event loop. The free function Run
// drives a pooled engine start-to-finish; NewEngine hands the caller
// an engine it can step in bounded increments (StepUntil) and fork
// with O(state) Snapshot/Restore — the substrate speculative
// schedulers and predictive dispatchers forward-simulate on.
type Engine struct {
	v    *View
	view View
	sch  Scheduler
	opts Options

	// arena backs every net's per-layer bookkeeping (see stateArena);
	// states and netPtrs are the grow-only netState storage the View's
	// nets slice points into.
	arena   stateArena
	states  []netState
	netPtrs []*netState

	// hostQ is a FIFO popped at hostHead: popping by reslicing the
	// front would pin the backing array (and every completed transfer
	// record) for the whole run, which matters on long serving
	// streams. The array is recycled whenever the queue drains, so
	// its footprint is bounded by the maximum queue depth.
	hostQ []hostXfer

	// arrivalOrder lists the indices of late-arriving nets sorted by
	// (arrival, index); nextArrival points at the first not yet
	// arrived. The loop consults only this pointer instead of scanning
	// every instance per event — essential for long serving streams.
	arrivalOrder []int

	linkState

	// chainSucc, when non-nil, maps each net to the chained phases that
	// arrive when it finishes (Options.ChainAfter inverted). chainBuf
	// is its pooled backing.
	chainSucc [][]int
	chainBuf  [][]int

	// chk, when non-nil, validates machine-model invariants at every
	// event (Options.CheckInvariants). chkState is its pooled storage.
	chk      *checker
	chkState checker

	// mbScratch and cbScratch are reused by the deadlock-diagnosis
	// path so it allocates nothing.
	mbScratch []MBRef
	cbScratch []CBRef

	// runID increments at every init; snapshots record it so a restore
	// into a re-initialized (or pooled-and-reused) engine is rejected.
	runID uint64

	// tables maps each distinct compiled table init has validated this
	// run to its entry in checked, which holds its totals and init
	// template (see checkTable). Entries of checked past len keep their
	// template storage for the next run; release clears tables, so a
	// pooled engine pins no table.
	tables  map[*compiler.CompiledNetwork]int
	checked []checkedTable

	res Result

	// obsState and logState are the pooled storage of View.om and
	// View.log, the run's metric state when Options.Metrics is set and
	// its decision log when Options.Ledger is. They come last: an
	// unobserved run never touches them.
	obsState simObs
	logState obs.Log
}

// EngineAware is implemented by schedulers that forward-simulate: the
// engine hands itself to the scheduler once at run start, before any
// decision is requested, so the scheduler can Snapshot/StepUntil/
// Restore the very machine it is scheduling.
type EngineAware interface {
	AttachEngine(*Engine)
}

// StatefulScheduler is implemented by schedulers whose decision state
// (queues, rotation cursors, token balances) must travel with engine
// snapshots so that a restore replays bit-identically. SaveState
// returns an opaque copy of the current state, reusing prev (a value
// previously returned by SaveState on the same scheduler, or nil)
// when possible; RestoreState reinstates a saved copy.
type StatefulScheduler interface {
	SaveState(prev any) any
	RestoreState(st any)
}

// enginePool recycles engines (arena slabs, frontier backings, checker
// state, scratch buffers) across Run calls, which is what makes a
// steady-state serve stream allocation-free per run. It keeps at most
// GOMAXPROCS idle engines, one per Run that can execute at once, and
// unlike a sync.Pool it keeps them across garbage collections. A
// sync.Pool empties at the second collection after a Put, and an
// engine rebuilt from scratch allocates its slabs again, which brings
// the next collection sooner: a long series of Run calls then settles
// into rebuilding the engine every time or into never rebuilding it,
// depending on where the first collections happen to fall (a traced
// 10,000-request stream simulated about 27% fewer blocks per second
// in the one state than in the other, on a 2-vCPU VM).
var enginePool struct {
	mu   sync.Mutex
	idle []*Engine
}

// getEngine takes an idle engine from the pool, or makes one.
func getEngine() *Engine {
	enginePool.mu.Lock()
	defer enginePool.mu.Unlock()
	n := len(enginePool.idle)
	if n == 0 {
		return new(Engine)
	}
	e := enginePool.idle[n-1]
	enginePool.idle[n-1] = nil
	enginePool.idle = enginePool.idle[:n-1]
	return e
}

// putEngine returns a released engine to the pool, or drops it when
// the pool already holds GOMAXPROCS engines.
func putEngine(e *Engine) {
	enginePool.mu.Lock()
	defer enginePool.mu.Unlock()
	if len(enginePool.idle) < runtime.GOMAXPROCS(0) {
		enginePool.idle = append(enginePool.idle, e)
	}
}

// Run simulates the co-located execution of the given compiled
// networks under the scheduler. All networks arrive at cycle zero in
// slice order. A cfg that Validate rejects is an error.
func Run(cfg arch.Config, nets []*compiler.CompiledNetwork, sch Scheduler, opts Options) (*Result, error) {
	e := getEngine()
	res, err := func() (*Result, error) {
		if err := e.init(cfg, nets, sch, opts); err != nil {
			return nil, err
		}
		if err := e.complete(); err != nil {
			return nil, err
		}
		return e.cloneResult(), nil
	}()
	e.release()
	putEngine(e)
	return res, err
}

// NewEngine returns an engine primed over the given workload, ready to
// be stepped (StepUntil), snapshotted and run. Unlike Run, the caller
// owns the engine; nothing is pooled.
func NewEngine(cfg arch.Config, nets []*compiler.CompiledNetwork, sch Scheduler, opts Options) (*Engine, error) {
	e := new(Engine)
	if err := e.init(cfg, nets, sch, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// init validates the workload and (re)builds the engine's state for a
// fresh run, reusing every backing array from the previous run.
func (e *Engine) init(cfg arch.Config, nets []*compiler.CompiledNetwork, sch Scheduler, opts Options) error {
	if len(nets) == 0 {
		return errors.New("sim: no networks")
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = 200_000_000_000
	}
	e.runID++

	// Reset the view in place, keeping its recycled slices.
	e.view = View{
		cfg: cfg, total: cfg.WeightBlocks(), nets: e.netPtrs[:0],
		active: e.view.active[:0], cbNets: e.view.cbNets[:0],
	}
	v := &e.view
	e.v = v

	totalLayers := 0
	for _, cn := range nets {
		totalLayers += len(cn.Layers)
	}
	e.arena.reset(totalLayers)
	if cap(e.states) < len(nets) {
		e.states = make([]netState, len(nets))
	}
	e.states = e.states[:len(nets)]
	clear(e.tables)
	e.checked = e.checked[:0]
	off := 0
	for i, cn := range nets {
		t, err := e.checkTable(cfg, cn)
		if err != nil {
			return err
		}
		v.mbRemaining += t.st.SubLayers
		v.cbTotal += t.st.CBCycles
		v.mbTotal += t.st.MBCycles
		initNetState(&e.states[i], cn, &t.tmpl, &e.arena, &off)
		v.nets = append(v.nets, &e.states[i])
	}
	e.netPtrs = v.nets

	e.sch = sch
	e.opts = opts
	e.hostQ = e.hostQ[:0]
	e.arrivalOrder = e.arrivalOrder[:0]
	e.linkState = linkState{}
	e.chainSucc = nil
	e.chk = nil
	if opts.CheckInvariants {
		e.chk = &e.chkState
		if err := e.chk.reset(v); err != nil {
			return err
		}
	}
	if opts.Ledger != nil {
		e.logState.Reset(opts.Ledger, v.total)
		v.log = &e.logState
	}
	if opts.Metrics != nil {
		e.obsState.reset(opts.Metrics, opts.NetClasses, len(nets))
		v.om = &e.obsState
		v.om.setGauge(gSRAMTotal, v.total)
	}
	// The arrivals at cycle zero below are observed like any event:
	// publish them when init returns.
	defer e.flushObs()

	e.res = Result{
		Scheduler:  sch.Name(),
		BlockBytes: cfg.BlockBytes(),
		NetNames:   resizeStrings(e.res.NetNames, len(nets)),
		NetArrive:  resizeCycles(e.res.NetArrive, len(nets)),
		NetFinish:  resizeCycles(e.res.NetFinish, len(nets)),
	}
	for i, cn := range nets {
		e.res.NetNames[i] = cn.Name
		if i < len(opts.Arrivals) && opts.Arrivals[i] > 0 {
			v.nets[i].arrived = false
			v.nets[i].arrival = opts.Arrivals[i]
			e.res.NetArrive[i] = opts.Arrivals[i]
		}
	}
	for i := 0; i < len(nets) && i < len(opts.ChainAfter); i++ {
		p := opts.ChainAfter[i]
		if p == -1 {
			continue
		}
		if p < 0 || p >= i {
			return fmt.Errorf("sim: ChainAfter[%d] = %d must name an earlier instance or -1", i, p)
		}
		if e.chainSucc == nil {
			if cap(e.chainBuf) < len(nets) {
				e.chainBuf = make([][]int, len(nets))
			}
			e.chainSucc = e.chainBuf[:len(nets)]
			for j := range e.chainSucc {
				e.chainSucc[j] = e.chainSucc[j][:0]
			}
		}
		e.chainSucc[p] = append(e.chainSucc[p], i)
		v.nets[i].arrived = false // invisible until the predecessor finishes
	}

	if ea, ok := sch.(EngineAware); ok {
		ea.AttachEngine(e)
	}

	// Networks arriving at cycle zero start their host input transfer
	// immediately; late arrivals do so when they arrive. Chained phases
	// join neither group: their predecessor's completion arrives them.
	for i := range nets {
		if e.chainSucc != nil && i < len(opts.ChainAfter) && opts.ChainAfter[i] >= 0 {
			continue
		}
		if v.nets[i].arrived {
			v.activeAdd(i)
			if err := e.arrive(i); err != nil {
				return err
			}
		} else {
			e.arrivalOrder = append(e.arrivalOrder, i)
		}
	}
	sort.SliceStable(e.arrivalOrder, func(a, b int) bool {
		return v.nets[e.arrivalOrder[a]].arrival < v.nets[e.arrivalOrder[b]].arrival
	})
	return nil
}

// checkedTable is one distinct compiled table validated by init, with
// its aggregate totals and the init template its instances share.
type checkedTable struct {
	st   compiler.Stats
	tmpl netTemplate
}

// checkTable validates cn (its own consistency, and that every memory
// block fits the weight SRAM) and returns its checked entry, doing the
// work and building the table's init template once per distinct table
// per run. Nothing is cached on the table itself: its exported Layers
// may be edited between runs.
func (e *Engine) checkTable(cfg arch.Config, cn *compiler.CompiledNetwork) (*checkedTable, error) {
	if i, ok := e.tables[cn]; ok {
		return &e.checked[i], nil
	}
	if err := cn.Validate(); err != nil {
		return nil, err
	}
	for i := range cn.Layers {
		if l := &cn.Layers[i]; l.MBBlocks > cfg.WeightBlocks() {
			return nil, fmt.Errorf("sim: %s/%s needs %d SRAM blocks but the weight buffer holds %d",
				cn.Name, l.Name, l.MBBlocks, cfg.WeightBlocks())
		}
	}
	if e.tables == nil {
		e.tables = make(map[*compiler.CompiledNetwork]int)
	}
	n := len(e.checked)
	// Reuse the template storage a previous run left past len.
	if n < cap(e.checked) {
		e.checked = e.checked[:n+1]
	} else {
		e.checked = append(e.checked, checkedTable{})
	}
	e.tables[cn] = n
	t := &e.checked[n]
	t.st = cn.Stats()
	t.tmpl.build(cn)
	return t, nil
}

// release drops every reference a pooled engine would otherwise pin
// (compiled networks and their templates' keys, the scheduler,
// observability sinks) while keeping the backing arrays for reuse.
func (e *Engine) release() {
	for i := range e.states {
		e.states[i].cn = nil
	}
	for i := range e.res.NetNames {
		e.res.NetNames[i] = ""
	}
	e.sch = nil
	e.opts = Options{}
	e.view.log = nil
	e.view.om = nil
	e.obsState.drop()
	e.chainSucc = nil
	e.chk = nil
	e.chkState.v = nil
	clear(e.tables)
}

// cloneResult copies the engine's result with fresh slices, so the
// caller's Result survives the engine's reuse.
func (e *Engine) cloneResult() *Result {
	out := e.res
	out.NetNames = append([]string(nil), e.res.NetNames...)
	out.NetArrive = append([]arch.Cycles(nil), e.res.NetArrive...)
	out.NetFinish = append([]arch.Cycles(nil), e.res.NetFinish...)
	return &out
}

func resizeStrings(s []string, n int) []string {
	if cap(s) < n {
		return make([]string, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = ""
	}
	return s
}

func resizeCycles(s []arch.Cycles, n int) []arch.Cycles {
	if cap(s) < n {
		return make([]arch.Cycles, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// complete runs the event loop to completion and finalizes the result.
func (e *Engine) complete() error {
	if _, err := e.loop(-1); err != nil {
		return err
	}
	e.res.Makespan = e.v.now
	if e.chk != nil {
		if err := e.chk.finish(&e.res); err != nil {
			return err
		}
	}
	return nil
}

// Run drives the engine from its current state to completion and
// returns the result. It may be called after NewEngine, after a
// Restore, or after StepUntil ran the run partway.
func (e *Engine) Run() (*Result, error) {
	if err := e.complete(); err != nil {
		return nil, err
	}
	return e.cloneResult(), nil
}

// StepUntil advances the simulation, processing every event up to and
// including cycle limit. It returns done=true when the workload
// completed at or before the limit; done=false means the next event
// lies beyond the limit and the engine stopped without advancing to
// it. A deadlock (no engine busy, work remaining) is always an error.
func (e *Engine) StepUntil(limit arch.Cycles) (done bool, err error) {
	if limit < 0 {
		limit = 0
	}
	return e.loop(limit)
}

// Now returns the engine's current simulated cycle.
func (e *Engine) Now() arch.Cycles { return e.v.now }

// Config returns the hardware configuration being simulated.
func (e *Engine) Config() arch.Config { return e.v.cfg }

// Progress returns the total engine-busy cycles accumulated so far
// (HBM channel plus PE complex) — the objective a speculative
// scheduler compares across forked branches: whichever choice kept
// the machine busier within the horizon wins.
func (e *Engine) Progress() arch.Cycles {
	return e.res.MemBusy + e.res.PEBusy
}

// Quiesce mutes the engine's externally visible emission — metrics,
// ledger and tracer — until the returned function is called.
// Speculative stepping wraps itself in Quiesce so forked branches
// leave no trace in the run's observability; the machine state the
// speculation mutates is unwound separately by Snapshot/Restore.
func (e *Engine) Quiesce() (restore func()) {
	om, log, tr := e.v.om, e.v.log, e.opts.Tracer
	e.v.om, e.v.log, e.opts.Tracer = nil, nil, nil
	return func() {
		e.v.om, e.v.log, e.opts.Tracer = om, log, tr
	}
}

// flushObs publishes the run-local metrics and decision log into the
// shared registry and ledger, in one step each.
func (e *Engine) flushObs() {
	if e.v.om != nil {
		e.v.om.flush()
	}
	if e.v.log != nil {
		e.opts.Ledger.Fold(e.v.log)
	}
}

// loop is the event loop: schedule onto idle engines, advance to the
// earliest completion or arrival, apply completions. limit >= 0 stops
// before advancing past it (see StepUntil); limit < 0 runs to
// completion. The run's observers see its events when loop returns.
func (e *Engine) loop(limit arch.Cycles) (done bool, err error) {
	v := e.v
	if v.om != nil || v.log != nil {
		defer e.flushObs()
	}
	for {
		if err := e.scheduleAll(); err != nil {
			return false, err
		}

		// Advance to the earliest completion among busy engines, or to
		// the next pending arrival.
		var next arch.Cycles = -1
		consider := func(busy bool, end arch.Cycles) {
			if busy && (next < 0 || end < next) {
				next = end
			}
		}
		consider(v.memBusy, v.memEnd)
		consider(v.peBusy, v.peEnd)
		consider(e.hostBusy, e.hostEnd)
		if e.nextArrival < len(e.arrivalOrder) {
			consider(true, v.nets[e.arrivalOrder[e.nextArrival]].arrival)
		}

		if next < 0 {
			if e.allDone() {
				return true, nil
			}
			return false, fmt.Errorf("%w at cycle %d: %s", ErrDeadlock, v.now, e.stuckDiagnosis())
		}
		if limit >= 0 && next > limit {
			return false, nil
		}
		if next > e.opts.MaxCycles {
			return false, fmt.Errorf("%w (%d)", ErrTimeLimit, e.opts.MaxCycles)
		}
		if e.chk != nil {
			if err := e.chk.advance(next); err != nil {
				return false, err
			}
		}
		v.now = next
		if v.om != nil {
			v.om.setGauge(gNow, int(next))
			v.om.setGauge(gHostQ, len(e.hostQ)-e.hostHead)
		}

		if v.memBusy && v.memEnd == v.now {
			if err := e.completeMB(); err != nil {
				return false, err
			}
		}
		if v.peBusy && v.peEnd == v.now {
			if err := e.completeCB(); err != nil {
				return false, err
			}
		}
		if e.hostBusy && e.hostEnd == v.now {
			if err := e.completeHost(); err != nil {
				return false, err
			}
		}
		for e.nextArrival < len(e.arrivalOrder) {
			i := e.arrivalOrder[e.nextArrival]
			if v.nets[i].arrival > v.now {
				break
			}
			e.nextArrival++
			v.nets[i].arrived = true
			v.activeAdd(i)
			if err := e.arrive(i); err != nil {
				return false, err
			}
		}
	}
}

// arrive starts network net's host input transfer (or resolves it
// immediately when the link is unconfigured or the input empty).
func (e *Engine) arrive(net int) error {
	if e.v.om != nil {
		e.v.om.arrive(net, len(e.v.active))
	}
	c := e.v.cfg.HostCycles(e.v.nets[net].cn.HostInBytes)
	if c == 0 {
		return e.finishHostIn(net)
	}
	e.hostQ = append(e.hostQ, hostXfer{net: net, cycles: c})
	return nil
}

// scheduleAll issues work onto idle engines until no further progress
// is possible at the current cycle.
func (e *Engine) scheduleAll() error {
	v := e.v
	for progress := true; progress; {
		progress = false

		if !v.memBusy && v.hasMBWork() {
			r, ok := e.sch.PickMB(v)
			if v.splitRequested {
				v.splitRequested = false
				if err := e.applySplit(); err != nil {
					return err
				}
				progress = true
			}
			if ok {
				if err := e.issueMB(r); err != nil {
					return err
				}
				progress = true
			}
		}

		if !v.peBusy {
			if r, ok := e.sch.PickCB(v); ok && v.isCBExecutable(r) {
				if err := e.startCB(r); err != nil {
					return err
				}
				progress = true
			}
		}

		if !e.hostBusy && e.hostHead < len(e.hostQ) {
			e.curHost = e.hostQ[e.hostHead]
			e.hostHead++
			if e.hostHead == len(e.hostQ) {
				e.hostQ = e.hostQ[:0]
				e.hostHead = 0
			}
			e.hostBusy = true
			e.hostEnd = v.now + e.curHost.cycles
			progress = true
		}
	}
	return nil
}

func (e *Engine) issueMB(r MBRef) error {
	v := e.v
	if !v.IsMBIssuable(r) {
		return fmt.Errorf("sim: scheduler %s returned non-issuable MB %+v", e.sch.Name(), r)
	}
	s := v.nets[r.Net]
	h, row := &s.hot[r.Layer], &s.rows[r.Layer]
	if free := v.total - v.used; free < h.mbBlocks {
		return fmt.Errorf("sim: issue MB %+v: %w: want %d, have %d", r, sram.ErrNoSpace, h.mbBlocks, free)
	}
	v.used += h.mbBlocks
	if v.used > e.res.SRAMPeakBlocks {
		e.res.SRAMPeakBlocks = v.used
	}
	row.mbIssued++
	if row.mbIssued == h.iters {
		s.mbFront = frontRemove(s.mbFront, r.Layer)
	}
	v.outstanding++
	v.mbRemaining--
	v.memBusy = true
	v.curMB = r
	v.memEnd = v.now + e.opts.SchedulerLatency + h.mbCycles
	if v.om != nil {
		v.om.counts[cPrefetches]++
		v.om.setGauge(gSRAMUsed, v.used)
		v.om.setGauge(gSRAMPeak, e.res.SRAMPeakBlocks)
	}
	if v.log != nil {
		v.note(obs.SlotMBPrefetch, r.Net, r.Layer, r.Iter, v.stallCause(0), h.mbCycles)
	}
	if e.chk != nil {
		if err := e.chk.mbIssue(r, h.mbBlocks); err != nil {
			return err
		}
		if err := e.chk.frontiers(); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) completeMB() error {
	v := e.v
	r := v.curMB
	s := v.nets[r.Net]
	h, row := &s.hot[r.Layer], &s.rows[r.Layer]
	start := v.memEnd - h.mbCycles
	v.memBusy = false
	e.res.MemBusy += h.mbCycles
	e.res.MBCount++
	if e.opts.Tracer != nil {
		e.trace("mem", compiler.LabelMB, r.Net, r.Layer, r.Iter, start, v.now)
	}
	if o := v.om; o != nil {
		o.counts[cMBDone]++
		o.counts[cMemBusy] += int64(h.mbCycles)
		o.memBusy, o.memAt = e.res.MemBusy, v.now
		o.set |= 1 << gMemUtil
		o.mbRun.Record(h.mbCycles)
	}
	if e.chk != nil {
		if err := e.chk.mbDone(r, start, v.now); err != nil {
			return err
		}
	}

	row.mbDone++
	if row.cbIndeg == 0 {
		// One more resident, unconsumed compute block on an unlocked
		// layer: it joins the CB frontier (if the layer was drained)
		// and the available-compute total.
		if row.mbDone-row.cbDone == 1 {
			v.cbFrontAdd(r.Net, r.Layer)
		}
		v.availCB += h.cbCycles
	}
	if row.mbDone == h.iters {
		for _, p := range s.cn.Layers[r.Layer].Posts {
			post := &s.rows[p]
			post.mbIndeg--
			if post.mbIndeg == 0 && post.mbIssued < s.hot[p].iters {
				s.mbFront = frontAdd(s.mbFront, p)
			}
		}
	}
	if e.chk != nil {
		if err := e.chk.frontiers(); err != nil {
			return err
		}
	}
	if v.om != nil {
		v.om.setGauge(gAvailCB, int(v.availCB))
	}
	e.sch.OnMBDone(v, r)
	return nil
}

func (e *Engine) startCB(r CBRef) error {
	v := e.v
	if row := &v.nets[r.Net].rows[r.Layer]; row.cbSelected == row.cbDone {
		row.cbSelected++ // implicit claim for policies without merging
	}
	work := v.CBCycles(r)
	v.peBusy = true
	v.curCB = r
	v.cbStart = v.now
	v.curCBWork = work
	v.peEnd = v.now + work
	if e.chk != nil {
		if err := e.chk.cbStart(r, work); err != nil {
			return err
		}
		if err := e.chk.frontiers(); err != nil {
			return err
		}
	}
	e.sch.OnCBStart(v, r)
	return nil
}

func (e *Engine) completeCB() error {
	v := e.v
	r := v.curCB
	s := v.nets[r.Net]
	h, row := &s.hot[r.Layer], &s.rows[r.Layer]
	v.peBusy = false
	e.res.PEBusy += v.curCBWork
	e.res.CBCount++
	if e.opts.Tracer != nil {
		e.trace("pe", compiler.LabelCB, r.Net, r.Layer, r.Iter, v.cbStart, v.now)
	}

	// The completed block releases its weights: the layer's resident
	// blocks are (mbIssued - cbDone) * mbBlocks.
	if resident := row.mbIssued - row.cbDone; resident < 1 {
		return fmt.Errorf("sim: complete CB %+v: %w: want %d, layer holds %d",
			r, sram.ErrUnderflow, h.mbBlocks, resident*h.mbBlocks)
	}
	v.used -= h.mbBlocks
	if o := v.om; o != nil {
		o.counts[cCBDone]++
		o.counts[cPEBusy] += int64(v.curCBWork)
		o.peBusy, o.peAt = e.res.PEBusy, v.now
		o.set |= 1 << gPEUtil
		o.cbRun.Record(v.curCBWork)
		o.setGauge(gSRAMUsed, v.used)
	}
	if e.chk != nil {
		if err := e.chk.cbDone(r, v.cbStart, v.now, h.mbBlocks); err != nil {
			return err
		}
	}
	// The consumed block leaves the available-compute total: a halted
	// remainder counted remnant + refill, a fresh block its full
	// cycles. (An executing block stays counted until it completes —
	// the reference scan counts mbDone - cbDone.)
	if row.remnant > 0 {
		v.availCB -= row.remnant + v.cfg.FillLatency
	} else {
		v.availCB -= h.cbCycles
	}
	row.remnant = 0
	row.cbDone++
	if row.mbDone == row.cbDone {
		v.cbFrontRemove(r.Net, r.Layer)
	}
	v.outstanding--
	if row.cbDone == h.iters {
		for _, p := range s.cn.Layers[r.Layer].Posts {
			s.rows[p].cbIndeg--
			if s.rows[p].cbIndeg == 0 {
				v.unlockCB(r.Net, p)
			}
		}
		s.layersLeft--
		if s.layersLeft == 0 {
			if err := e.finishCompute(r.Net); err != nil {
				return err
			}
		}
	}
	if e.chk != nil {
		if err := e.chk.frontiers(); err != nil {
			return err
		}
	}
	if v.om != nil {
		v.om.setGauge(gAvailCB, int(v.availCB))
	}
	e.sch.OnCBDone(v, r)
	return nil
}

// applySplit halts the executing compute block at the current cycle.
func (e *Engine) applySplit() error {
	v := e.v
	if !v.peBusy || v.now <= v.cbStart || v.peEnd <= v.now {
		return nil // nothing meaningful to split; ignore the request
	}
	r := v.curCB
	s := v.nets[r.Net]
	row := &s.rows[r.Layer]
	executed := v.now - v.cbStart
	remaining := v.peEnd - v.now

	v.peBusy = false
	e.res.PEBusy += executed
	e.res.Splits++
	if e.opts.Tracer != nil {
		e.trace("pe", compiler.LabelCBSplit, r.Net, r.Layer, r.Iter, v.cbStart, v.now)
	}

	if e.chk != nil {
		if err := e.chk.cbSplit(r, v.cbStart, v.now, remaining); err != nil {
			return err
		}
	}
	// The halted block's availability shrinks from what it counted at
	// start (a full block, or a previous remnant + refill) to the new
	// remainder + refill. Frontier membership is unchanged: the block
	// returns to candidacy on a still-unlocked layer.
	old := s.hot[r.Layer].cbCycles
	if row.remnant > 0 {
		old = row.remnant + v.cfg.FillLatency
	}
	v.availCB += remaining + v.cfg.FillLatency - old
	row.remnant = remaining
	row.cbSelected = row.cbDone
	if e.chk != nil {
		if err := e.chk.frontiers(); err != nil {
			return err
		}
	}
	if o := v.om; o != nil {
		o.counts[cSplits]++
		o.counts[cPEBusy] += int64(executed)
		o.setGauge(gAvailCB, int(v.availCB))
	}
	if v.log != nil {
		// A split is by construction a capacity-recovery decision:
		// the scheduler is clearing the PE so small compute blocks
		// can free SRAM for a blocked capacity-critical fetch.
		v.note(obs.SlotCBSplit, r.Net, r.Layer, r.Iter, obs.SlotPE, remaining)
	}
	e.sch.OnCBSplit(v, r, remaining)
	return nil
}

func (e *Engine) finishCompute(net int) error {
	cn := e.v.nets[net].cn
	c := e.v.cfg.HostCycles(cn.HostOutBytes)
	if c == 0 {
		return e.finishNet(net)
	}
	e.hostQ = append(e.hostQ, hostXfer{net: net, output: true, cycles: c})
	return nil
}

func (e *Engine) completeHost() error {
	v := e.v
	x := e.curHost
	e.hostBusy = false
	e.res.HostBusy += x.cycles
	name := "host-in"
	if x.output {
		name = "host-out"
	}
	if e.opts.Tracer != nil {
		e.opts.Tracer.Event("host", name, x.net, -1, -1, e.hostEnd-x.cycles, v.now)
	}
	if v.om != nil {
		v.om.counts[cHostBusy] += int64(x.cycles)
	}
	if x.output {
		return e.finishNet(x.net)
	}
	return e.finishHostIn(x.net)
}

func (e *Engine) finishHostIn(net int) error {
	s := e.v.nets[net]
	s.hostInDone = true
	for li := range s.cn.Layers {
		if len(s.cn.Layers[li].Deps) == 0 {
			s.rows[li].cbIndeg--
			if s.rows[li].cbIndeg == 0 {
				e.v.unlockCB(net, li)
			}
		}
	}
	if e.chk != nil {
		e.chk.hostIn(net)
		return e.chk.frontiers()
	}
	return nil
}

func (e *Engine) finishNet(net int) error {
	s := e.v.nets[net]
	s.finished = true
	s.finishAt = e.v.now
	e.v.activeRemove(net)
	e.res.NetFinish[net] = e.v.now
	if e.v.om != nil {
		e.v.om.finish(net, len(e.v.active))
	}
	if e.chainSucc != nil {
		for _, c := range e.chainSucc[net] {
			if err := e.chainArrive(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// chainArrive arrives chained phase i now that its predecessor has
// finished — immediately when its static arrival has passed (the
// normal case: a decode iteration is ready the moment the previous
// token completes), otherwise by queueing it with the ordinary late
// arrivals.
func (e *Engine) chainArrive(i int) error {
	v := e.v
	s := v.nets[i]
	if s.arrival > v.now {
		e.deferArrival(i)
		return nil
	}
	s.arrival = v.now
	s.arrived = true
	e.res.NetArrive[i] = v.now
	v.activeAdd(i)
	return e.arrive(i)
}

// deferArrival inserts net i into the pending suffix of arrivalOrder,
// keeping it sorted by arrival cycle.
func (e *Engine) deferArrival(i int) {
	pos := e.nextArrival
	for pos < len(e.arrivalOrder) && e.v.nets[e.arrivalOrder[pos]].arrival <= e.v.nets[i].arrival {
		pos++
	}
	e.arrivalOrder = append(e.arrivalOrder, 0)
	copy(e.arrivalOrder[pos+1:], e.arrivalOrder[pos:])
	e.arrivalOrder[pos] = i
}

func (e *Engine) allDone() bool {
	for _, s := range e.v.nets {
		if !s.finished {
			return false
		}
	}
	return e.hostHead == len(e.hostQ) && !e.hostBusy
}

// trace forwards one block's occupancy interval to the Tracer under
// the layer's label of the given kind. Callers check for a nil Tracer
// first, so an untraced run pays only that check and passes nothing
// (see BenchmarkSimulatorThroughput's allocs/op); labels are resolved
// once per compiled network, so a traced event does not allocate
// either.
func (e *Engine) trace(engineName string, kind compiler.LabelKind, net, layer, iter int, start, end arch.Cycles) {
	e.opts.Tracer.Event(engineName, e.v.nets[net].cn.Label(kind, layer), net, layer, iter, start, end)
}

// stuckDiagnosis renders a short description of why no engine can make
// progress, for deadlock errors.
func (e *Engine) stuckDiagnosis() string {
	v := e.v
	e.mbScratch = v.MBCandidates(e.mbScratch[:0])
	e.cbScratch = v.ReadyCBs(e.cbScratch[:0])
	return fmt.Sprintf("free SRAM blocks %d/%d, %d MB candidates, %d ready CBs, host queue %d",
		v.FreeBlocks(), v.total, len(e.mbScratch), len(e.cbScratch), len(e.hostQ)-e.hostHead)
}
