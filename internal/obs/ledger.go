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
// View.NoteEviction seam.
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
// oldest entries are dropped (Dropped counts them) while per-kind
// totals keep exact lifetime counts, so attribution tests and the
// admin surface can reconcile against simulator results even for
// streams far longer than the ring.
type Ledger struct {
	mu      sync.Mutex
	buf     []Decision
	next    int // ring write position
	total   int64
	byKind  tally
	byStall tally
}

// The closed vocabularies Record counts into fixed slots, most
// frequent first.
var (
	ledgerKinds = []string{KindMBPrefetch, KindCBMerge, KindEarlyEvict, KindCBSplit,
		KindPreempt, KindLookahead, KindShed, KindScaleUp, KindScaleDown}
	ledgerStalls = []string{StallHBM, StallPE, StallNone, ""}
)

// tally counts names from a closed vocabulary in fixed slots, so a
// Record hashes nothing; a name outside the vocabulary goes to a
// lazily made overflow map.
type tally struct {
	names []string
	slots []int64
	other map[string]int64
}

func newTally(names []string) tally {
	return tally{names: names, slots: make([]int64, len(names))}
}

func (t *tally) slot(name string) int {
	for i, n := range t.names {
		if n == name {
			return i
		}
	}
	return -1
}

func (t *tally) add(name string) {
	if i := t.slot(name); i >= 0 {
		t.slots[i]++
		return
	}
	if t.other == nil {
		t.other = make(map[string]int64)
	}
	t.other[name]++
}

func (t *tally) get(name string) int64 {
	if i := t.slot(name); i >= 0 {
		return t.slots[i]
	}
	return t.other[name]
}

// counts returns every recorded name's count.
func (t *tally) counts() map[string]int64 {
	m := make(map[string]int64, len(t.other))
	for i, c := range t.slots {
		if c > 0 {
			m[t.names[i]] = c
		}
	}
	for n, c := range t.other {
		m[n] = c
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
	return &Ledger{
		buf:     make([]Decision, 0, capacity),
		byKind:  newTally(ledgerKinds),
		byStall: newTally(ledgerStalls),
	}
}

// Record appends one decision, assigning its sequence number.
func (l *Ledger) Record(d Decision) {
	l.mu.Lock()
	d.Seq = l.total
	l.total++
	l.byKind.add(d.Kind)
	l.byStall.add(d.Stall)
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, d)
	} else {
		l.buf[l.next] = d
		l.next++
		if l.next == len(l.buf) {
			l.next = 0
		}
	}
	l.mu.Unlock()
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

// Dropped returns how many decisions the ring has evicted.
func (l *Ledger) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total - int64(len(l.buf))
}

// CountKind returns the lifetime count of decisions of the given
// kind, unaffected by ring eviction.
func (l *Ledger) CountKind(kind string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byKind.get(kind)
}

// CountStall returns the lifetime count of decisions attributed to
// the given stall cause.
func (l *Ledger) CountStall(stall string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byStall.get(stall)
}

// Each calls fn on every retained decision, oldest first, stopping
// early when fn returns false. The ledger is locked for the duration;
// fn must not call back into it.
func (l *Ledger) Each(fn func(Decision) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < len(l.buf); i++ {
		if !fn(l.buf[(l.next+i)%len(l.buf)]) {
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
	for i := 0; i < n; i++ {
		out[i] = l.buf[(l.next+len(l.buf)-n+i)%len(l.buf)]
	}
	return out
}

// Filter returns the retained decisions of the given kind, oldest
// first.
func (l *Ledger) Filter(kind string) []Decision {
	var out []Decision
	l.Each(func(d Decision) bool {
		if d.Kind == kind {
			out = append(out, d)
		}
		return true
	})
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

// Summary returns the ledger's lifetime totals.
func (l *Ledger) Summary() LedgerSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerSummary{
		Total:   l.total,
		Dropped: l.total - int64(len(l.buf)),
		ByKind:  l.byKind.counts(),
		ByStall: l.byStall.counts(),
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
