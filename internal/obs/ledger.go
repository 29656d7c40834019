package obs

import (
	"encoding/json"
	"io"
	"sync"

	"aimt/internal/arch"
)

// Decision kinds recorded in the ledger. The engine records prefetch,
// merge-claim and split decisions at its state-transition funnels;
// the AI-MT scheduler records eviction reservations through the
// View.NoteEviction seam; the cluster dispatcher records shed and
// scale decisions.
const (
	// KindMBPrefetch is one memory block handed to the HBM channel.
	KindMBPrefetch = "mb-prefetch"
	// KindCBMerge is one compute block claimed ahead of execution
	// (the paper's CB merging into the selected queue).
	KindCBMerge = "cb-merge"
	// KindEarlyEvict is one early-eviction capacity reservation: a
	// capacity-critical memory block is blocked on SRAM space and the
	// scheduler holds the channel idle for it instead of letting
	// smaller blocks steal the window (§IV-C).
	KindEarlyEvict = "early-evict"
	// KindCBSplit is one halted compute block (the paper's CB split).
	KindCBSplit = "cb-split"
	// KindPreempt is one priority preemption: the scheduler requested a
	// CB split so a higher-priority request's ready compute block can
	// displace a lower-priority executing one (serving control plane).
	KindPreempt = "preempt"
	// KindShed is one admission-control decision: the cluster
	// dispatcher predicted the request could not meet its deadline on
	// any active chip and dropped it instead of routing it.
	KindShed = "admission-shed"
	// KindScaleUp and KindScaleDown are elastic-autoscaler set changes:
	// the dispatcher grew or shrank the active chip set. Detail carries
	// the new active chip count.
	KindScaleUp   = "scale-up"
	KindScaleDown = "scale-down"
	// KindLookahead is one committed speculative scheduling decision:
	// the scheduler forked the machine state, simulated the contested
	// choices Horizon cycles ahead, and committed the recorded block's
	// branch. Detail carries the predicted busy-cycle delta over the
	// losing branch.
	KindLookahead = "lookahead"
)

// Stall attribution: which resource bounded the machine at the moment
// a decision fired.
const (
	// StallHBM means the PE complex was starved — no resident,
	// unconsumed compute work existed, so progress waited on the HBM
	// channel.
	StallHBM = "hbm-bound"
	// StallPE means the weight SRAM was the constraint — the next
	// fetch lacked free blocks, so progress waited on the PE complex
	// to consume resident weights.
	StallPE = "pe-bound"
	// StallNone means neither engine was limiting at decision time.
	StallNone = "none"
)

// Decision is one ledger entry: a scheduler or engine decision
// attributed to its simulated cycle, block, SRAM occupancy and stall
// cause.
type Decision struct {
	// Seq is the decision's global sequence number (0-based over the
	// ledger's lifetime, including entries the ring has dropped).
	Seq int64 `json:"seq"`
	// Cycle is the simulated time the decision fired.
	Cycle arch.Cycles `json:"cycle"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Net, Layer and Iter identify the block the decision concerns.
	Net   int `json:"net"`
	Layer int `json:"layer"`
	Iter  int `json:"iter"`
	// SRAMUsed and SRAMTotal give weight-SRAM occupancy in blocks at
	// decision time.
	SRAMUsed  int `json:"sram_used"`
	SRAMTotal int `json:"sram_total"`
	// AvailCB is the resident unconsumed compute work (the paper's
	// AVL_CB) at decision time.
	AvailCB arch.Cycles `json:"avail_cb"`
	// Stall is one of the Stall* constants.
	Stall string `json:"stall"`
	// Detail carries the decision's magnitude in cycles: the fetch
	// length for a prefetch, the claimed compute for a merge, the
	// blocked fetch length for an eviction, the remaining work for a
	// split, the predicted progress delta for a lookahead.
	Detail arch.Cycles `json:"detail,omitempty"`
	// Horizon, for lookahead decisions, is how many cycles ahead the
	// branches were simulated before committing.
	Horizon arch.Cycles `json:"horizon,omitempty"`
}

// Ledger is a bounded, concurrency-safe ring of decisions. Appends
// never allocate once the ring is warm; when the ring is full the
// oldest entries are dropped (Summary counts them) while per-kind
// totals keep exact lifetime counts, so attribution tests and the
// admin surface can reconcile against simulator results even for
// streams far longer than the ring.
//
// Its one writer is Fold: decisions are noted into a run-local Log and
// folded in. The ring holds fixed-size, pointer-free entries, so the
// collector never scans it: kind and stall are stored as their slots,
// and the sequence number follows from the ring position. A Decision
// is built only on read, by Each, Tail and WriteJSONL.
type Ledger struct {
	mu       sync.Mutex
	buf      []entry
	next     int // ring write position
	capacity int // cap(buf), immutable, so a Log can read it unlocked
	total    int64
	kinds    [numKindSlots]int64
	stalls   [numStallSlots]int64
}

// entry is one retained decision: a Decision without its sequence
// number, with kind and stall as slots.
type entry struct {
	cycle, availCB, detail, horizon arch.Cycles
	net, layer, iter                int
	sramUsed, sramTotal             int
	kind                            KindSlot
	stall                           StallSlot
}

// KindSlot is a decision kind as its slot in the closed kind
// vocabulary: the typed form of a Kind* name that a Log records
// without comparing strings.
type KindSlot uint8

// The decision kinds, in vocabulary order: the engine's first, then
// the cluster dispatcher's.
const (
	SlotMBPrefetch KindSlot = iota // KindMBPrefetch
	SlotCBMerge                    // KindCBMerge
	SlotEarlyEvict                 // KindEarlyEvict
	SlotCBSplit                    // KindCBSplit
	SlotPreempt                    // KindPreempt
	SlotLookahead                  // KindLookahead
	SlotShed                       // KindShed
	SlotScaleUp                    // KindScaleUp
	SlotScaleDown                  // KindScaleDown
	numKindSlots
)

// StallSlot is a stall cause as its slot in the closed stall
// vocabulary.
type StallSlot uint8

// The stall causes, in vocabulary order.
const (
	SlotHBM  StallSlot = iota // StallHBM
	SlotPE                    // StallPE
	SlotNone                  // StallNone
	numStallSlots
)

// The names of the slots, in slot order.
var (
	ledgerKinds = [numKindSlots]string{KindMBPrefetch, KindCBMerge, KindEarlyEvict, KindCBSplit,
		KindPreempt, KindLookahead, KindShed, KindScaleUp, KindScaleDown}
	ledgerStalls = [numStallSlots]string{StallHBM, StallPE, StallNone}
)

// countOf returns name's count in tallies indexed like names, or 0 for
// a name outside the vocabulary.
func countOf(names []string, tallies []int64, name string) int64 {
	for i, n := range names {
		if n == name {
			return tallies[i]
		}
	}
	return 0
}

// countsOf returns every nonzero tally by name.
func countsOf(names []string, tallies []int64) map[string]int64 {
	m := make(map[string]int64, len(names))
	for i, c := range tallies {
		if c > 0 {
			m[names[i]] = c
		}
	}
	return m
}

// DefaultLedgerCap is the ring capacity used when NewLedger is given
// a non-positive one.
const DefaultLedgerCap = 4096

// NewLedger returns a ledger retaining the last capacity decisions
// (DefaultLedgerCap when capacity <= 0).
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultLedgerCap
	}
	return &Ledger{buf: make([]entry, 0, capacity), capacity: capacity}
}

// Log is a run-local decision buffer: one engine run or one dispatch
// pass fills it without locks or string comparisons, and Fold
// publishes it into its ledger in one step. It holds ring entries, so
// folding is a block copy, and retains at most the ledger's capacity of the newest
// decisions (older ones could never survive the fold) while tallying
// every decision by slot. Its storage grows to that bound on first use
// and is reused by every later Reset, so a pooled engine allocates for
// it once.
type Log struct {
	buf       []entry
	next      int // write position once buf holds limit entries
	limit     int
	sramTotal int
	total     int64
	kinds     [numKindSlots]int64
	stalls    [numStallSlots]int64
}

// Reset empties g for a run whose decisions fold into l, on a machine
// of sramTotal weight blocks, keeping g's storage.
func (g *Log) Reset(l *Ledger, sramTotal int) {
	*g = Log{buf: g.buf[:0], limit: l.capacity, sramTotal: sramTotal}
}

// Note logs one decision, the fields of Decision in order, less the
// sequence number and SRAM capacity.
func (g *Log) Note(kind KindSlot, stall StallSlot, cycle arch.Cycles, net, layer, iter, sramUsed int, availCB, detail, horizon arch.Cycles) {
	var e *entry
	if len(g.buf) < g.limit {
		g.buf = append(g.buf, entry{})
		e = &g.buf[len(g.buf)-1]
	} else {
		e = &g.buf[g.next]
		g.next++
		if g.next == len(g.buf) {
			g.next = 0
		}
	}
	// Field by field: a composite literal would be built aside and
	// block-copied into the buffer.
	e.cycle, e.availCB, e.detail, e.horizon = cycle, availCB, detail, horizon
	e.net, e.layer, e.iter = net, layer, iter
	e.sramUsed, e.sramTotal = sramUsed, g.sramTotal
	e.kind, e.stall = kind, stall
	g.kinds[kind]++
	g.stalls[stall]++
	g.total++
}

// Fold appends g's decisions to the ledger, oldest first, under one
// lock: the ledger then reads exactly as if each had been recorded in
// turn. g is left empty for further logging.
func (l *Ledger) Fold(g *Log) {
	if g.total == 0 {
		return
	}
	l.mu.Lock()
	l.appendEntries(g.buf[g.next:])
	l.appendEntries(g.buf[:g.next])
	for k, n := range g.kinds {
		l.kinds[k] += n
	}
	for s, n := range g.stalls {
		l.stalls[s] += n
	}
	l.total += g.total
	l.mu.Unlock()
	g.buf, g.next, g.total = g.buf[:0], 0, 0
	g.kinds, g.stalls = [numKindSlots]int64{}, [numStallSlots]int64{}
}

// appendEntries pushes src into the ring, oldest first, in at most a
// few block copies. The caller holds the lock.
func (l *Ledger) appendEntries(src []entry) {
	for len(src) > 0 {
		var n int
		if free := cap(l.buf) - len(l.buf); free > 0 {
			n = min(free, len(src))
			l.buf = append(l.buf, src[:n]...)
		} else {
			n = copy(l.buf[l.next:], src)
			if l.next += n; l.next == len(l.buf) {
				l.next = 0
			}
		}
		src = src[n:]
	}
}

// decision rebuilds the i-th retained decision, oldest first. The
// caller holds the lock.
func (l *Ledger) decision(i int) Decision {
	e := &l.buf[(l.next+i)%len(l.buf)]
	return Decision{
		Seq:       l.total - int64(len(l.buf)) + int64(i),
		Cycle:     e.cycle,
		Kind:      ledgerKinds[e.kind],
		Net:       e.net,
		Layer:     e.layer,
		Iter:      e.iter,
		SRAMUsed:  e.sramUsed,
		SRAMTotal: e.sramTotal,
		AvailCB:   e.availCB,
		Stall:     ledgerStalls[e.stall],
		Detail:    e.detail,
		Horizon:   e.horizon,
	}
}

// Total returns the lifetime number of recorded decisions.
func (l *Ledger) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Len returns the number of retained decisions.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// CountKind returns the lifetime count of decisions of the given
// kind, unaffected by ring eviction.
func (l *Ledger) CountKind(kind string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return countOf(ledgerKinds[:], l.kinds[:], kind)
}

// CountStall returns the lifetime count of decisions attributed to
// the given stall cause.
func (l *Ledger) CountStall(stall string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return countOf(ledgerStalls[:], l.stalls[:], stall)
}

// Each calls fn on every retained decision, oldest first, stopping
// early when fn returns false. The ledger is locked for the duration;
// fn must not call back into it.
func (l *Ledger) Each(fn func(Decision) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < len(l.buf); i++ {
		if !fn(l.decision(i)) {
			return
		}
	}
}

// Tail returns up to n of the most recent decisions, oldest first.
// n <= 0 returns every retained decision.
func (l *Ledger) Tail(n int) []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > len(l.buf) {
		n = len(l.buf)
	}
	out := make([]Decision, n)
	for i := range out {
		out[i] = l.decision(len(l.buf) - n + i)
	}
	return out
}

// LedgerSummary is the JSON-marshalable header of a ledger: lifetime
// totals and the per-kind/per-stall breakdowns.
type LedgerSummary struct {
	Total   int64            `json:"total"`
	Dropped int64            `json:"dropped"`
	ByKind  map[string]int64 `json:"by_kind"`
	ByStall map[string]int64 `json:"by_stall"`
}

// Summary returns the ledger's lifetime totals; Dropped counts the
// decisions the ring has evicted.
func (l *Ledger) Summary() LedgerSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerSummary{
		Total:   l.total,
		Dropped: l.total - int64(len(l.buf)),
		ByKind:  countsOf(ledgerKinds[:], l.kinds[:]),
		ByStall: countsOf(ledgerStalls[:], l.stalls[:]),
	}
}

// WriteJSONL emits the retained decisions as JSON Lines, oldest
// first — one decision object per line, ready for jq or a columnar
// loader.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	var err error
	l.Each(func(d Decision) bool {
		err = enc.Encode(d)
		return err == nil
	})
	return err
}
