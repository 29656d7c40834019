package obs

import (
	"encoding/json"
	"io"
	"slices"
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
// oldest entries are dropped (Summary counts them) while per-kind
// totals keep exact lifetime counts, so attribution tests and the
// admin surface can reconcile against simulator results even for
// streams far longer than the ring.
//
// The ring holds fixed-size, pointer-free entries, so the collector
// never scans it: kind and stall are stored as slots of the counting
// vocabularies (a name outside them gets a slot of its own, once), and
// the sequence number follows from the ring position. A Decision is
// built only on read, by Each, Tail and WriteJSONL.
type Ledger struct {
	mu      sync.Mutex
	buf     []entry
	next    int // ring write position
	total   int64
	byKind  tally
	byStall tally
}

// entry is one retained decision: a Decision without its sequence
// number, with kind and stall as tally slots.
type entry struct {
	cycle, availCB, detail, horizon arch.Cycles
	net, layer, iter                int
	sramUsed, sramTotal             int
	kind, stall                     int32
}

// The closed vocabularies Record counts into fixed slots, most
// frequent first.
var (
	ledgerKinds = []string{KindMBPrefetch, KindCBMerge, KindEarlyEvict, KindCBSplit,
		KindPreempt, KindLookahead, KindShed, KindScaleUp, KindScaleDown}
	ledgerStalls = []string{StallHBM, StallPE, StallNone, ""}
)

// tally counts names in slots: the vocabulary's first, then each name
// outside it in order of first use, found through a lazily made
// index. Counting a vocabulary name hashes nothing.
type tally struct {
	names []string
	slots []int64
	other map[string]int32 // slot of each name outside the vocabulary
	vocab int
}

func newTally(vocab []string) tally {
	return tally{names: slices.Clone(vocab), slots: make([]int64, len(vocab)), vocab: len(vocab)}
}

// slot returns name's slot, or -1 when it has none yet.
func (t *tally) slot(name string) int32 {
	for i, n := range t.names[:t.vocab] {
		if n == name {
			return int32(i)
		}
	}
	if i, ok := t.other[name]; ok {
		return i
	}
	return -1
}

// addKnown counts one use of a vocabulary name and returns its slot,
// or returns -1 for a name outside the vocabulary, which addOther then
// counts. The split keeps addKnown small enough to inline.
func (t *tally) addKnown(name string) int32 {
	for i, n := range t.names[:t.vocab] {
		if n == name {
			t.slots[i]++
			return int32(i)
		}
	}
	return -1
}

// addOther counts one use of a name outside the vocabulary.
func (t *tally) addOther(name string) int32 {
	i, ok := t.other[name]
	if !ok {
		if t.other == nil {
			t.other = make(map[string]int32)
		}
		i = int32(len(t.names))
		t.other[name] = i
		t.names = append(t.names, name)
		t.slots = append(t.slots, 0)
	}
	t.slots[i]++
	return i
}

func (t *tally) get(name string) int64 {
	if i := t.slot(name); i >= 0 {
		return t.slots[i]
	}
	return 0
}

// counts returns every recorded name's count.
func (t *tally) counts() map[string]int64 {
	m := make(map[string]int64, len(t.names))
	for i, c := range t.slots {
		if c > 0 {
			m[t.names[i]] = c
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
	return &Ledger{
		buf:     make([]entry, 0, capacity),
		byKind:  newTally(ledgerKinds),
		byStall: newTally(ledgerStalls),
	}
}

// Record appends one decision, assigning its sequence number (d.Seq
// is ignored).
func (l *Ledger) Record(d Decision) {
	l.Note(d.Kind, d.Stall, d.Cycle, d.Net, d.Layer, d.Iter, d.SRAMUsed, d.SRAMTotal, d.AvailCB, d.Detail, d.Horizon)
}

// Note appends one decision given field by field, the fields of
// Decision in order, for emitters that would otherwise build a
// Decision only to have it copied into the ring.
func (l *Ledger) Note(kind, stall string, cycle arch.Cycles, net, layer, iter, sramUsed, sramTotal int, availCB, detail, horizon arch.Cycles) {
	l.mu.Lock()
	var e *entry
	if len(l.buf) < cap(l.buf) {
		l.buf = l.buf[:len(l.buf)+1]
		e = &l.buf[len(l.buf)-1]
	} else {
		e = &l.buf[l.next]
		l.next++
		if l.next == len(l.buf) {
			l.next = 0
		}
	}
	// Field by field: a composite literal would be built aside and
	// block-copied into the ring.
	e.cycle, e.availCB, e.detail, e.horizon = cycle, availCB, detail, horizon
	e.net, e.layer, e.iter = net, layer, iter
	e.sramUsed, e.sramTotal = sramUsed, sramTotal
	if e.kind = l.byKind.addKnown(kind); e.kind < 0 {
		e.kind = l.byKind.addOther(kind)
	}
	if e.stall = l.byStall.addKnown(stall); e.stall < 0 {
		e.stall = l.byStall.addOther(stall)
	}
	l.total++
	l.mu.Unlock()
}

// decision rebuilds the i-th retained decision, oldest first. The
// caller holds the lock.
func (l *Ledger) decision(i int) Decision {
	e := &l.buf[(l.next+i)%len(l.buf)]
	return Decision{
		Seq:       l.total - int64(len(l.buf)) + int64(i),
		Cycle:     e.cycle,
		Kind:      l.byKind.names[e.kind],
		Net:       e.net,
		Layer:     e.layer,
		Iter:      e.iter,
		SRAMUsed:  e.sramUsed,
		SRAMTotal: e.sramTotal,
		AvailCB:   e.availCB,
		Stall:     l.byStall.names[e.stall],
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
