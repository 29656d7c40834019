package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aimt/internal/arch"
)

// refLedger is the reference ring the ledger is checked against: plain
// Decision values and name-keyed maps, as the ledger stored them
// before its entries became pointer-free.
type refLedger struct {
	buf             []Decision
	capacity, next  int
	total           int64
	byKind, byStall map[string]int64
}

func newRefLedger(capacity int) *refLedger {
	return &refLedger{capacity: capacity, byKind: map[string]int64{}, byStall: map[string]int64{}}
}

func (r *refLedger) record(d Decision) {
	d.Seq = r.total
	r.total++
	r.byKind[d.Kind]++
	r.byStall[d.Stall]++
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, d)
		return
	}
	r.buf[r.next] = d
	r.next = (r.next + 1) % r.capacity
}

// retained returns the ring oldest first.
func (r *refLedger) retained() []Decision {
	return append(append([]Decision(nil), r.buf[r.next:]...), r.buf[:r.next]...)
}

func (r *refLedger) summary() LedgerSummary {
	return LedgerSummary{Total: r.total, Dropped: r.total - int64(len(r.buf)), ByKind: r.byKind, ByStall: r.byStall}
}

// randomDecision draws a decision of any kind and stall slot whose
// integers include the extremes, with the slots it was drawn from.
func randomDecision(rng *rand.Rand, sramTotal int) (Decision, KindSlot, StallSlot) {
	kind, stall := KindSlot(rng.Intn(int(numKindSlots))), StallSlot(rng.Intn(int(numStallSlots)))
	ints := []int{0, 1, -1, 42, math.MaxInt, math.MinInt, math.MaxInt32 + 1}
	n := func() int {
		if rng.Intn(3) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Intn(1000)
	}
	c := func() arch.Cycles { return arch.Cycles(n()) }
	return Decision{
		Cycle: c(), Kind: ledgerKinds[kind],
		Net: n(), Layer: n(), Iter: n(),
		SRAMUsed: n(), SRAMTotal: sramTotal, AvailCB: c(),
		Stall: ledgerStalls[stall], Detail: c(), Horizon: c(),
	}, kind, stall
}

// TestLedgerMatchesReference is the ledger's differential test: over
// random decision streams, across ring wrap and capacity 1, the ledger
// reads back exactly what the reference ring of plain Decisions holds —
// Each, Tail, the WriteJSONL bytes, Summary and the lifetime counters.
// Every decision goes through a run-local Log (itself wrapping when
// more than the ledger's capacity is noted between folds), folded in at
// random points; the Log is reset at random points too, as each engine
// run or dispatch pass resets its own, on a machine of its own size.
func TestLedgerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var g Log
	for trial := 0; trial < 300; trial++ {
		capacity := []int{1, 2, 3, 7, 64}[trial%5]
		l, ref := NewLedger(capacity), newRefLedger(capacity)
		sramTotal := rng.Intn(1000)
		g.Reset(l, sramTotal)
		for i, steps := 0, rng.Intn(4*capacity+10); i < steps; i++ {
			d, kind, stall := randomDecision(rng, sramTotal)
			g.Note(kind, stall, d.Cycle, d.Net, d.Layer, d.Iter, d.SRAMUsed, d.AvailCB, d.Detail, d.Horizon)
			ref.record(d)
			switch rng.Intn(8) {
			case 0:
				l.Fold(&g)
			case 1:
				l.Fold(&g)
				sramTotal = rng.Intn(1000)
				g.Reset(l, sramTotal)
			}
		}
		l.Fold(&g)

		want := ref.retained()
		var got []Decision
		l.Each(func(d Decision) bool {
			got = append(got, d)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Each\n got %+v\nwant %+v", trial, got, want)
		}
		for _, n := range []int{0, 1, capacity, capacity + 3, rng.Intn(capacity + 1)} {
			wantTail := want
			if n > 0 && n < len(want) {
				wantTail = want[len(want)-n:]
			}
			if gotTail := l.Tail(n); !reflect.DeepEqual(gotTail, append([]Decision{}, wantTail...)) {
				t.Fatalf("trial %d: Tail(%d)\n got %+v\nwant %+v", trial, n, gotTail, wantTail)
			}
		}
		var gotJS, wantJS bytes.Buffer
		if err := l.WriteJSONL(&gotJS); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&wantJS)
		for _, d := range want {
			if err := enc.Encode(d); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(gotJS.Bytes(), wantJS.Bytes()) {
			t.Fatalf("trial %d: WriteJSONL\n got %s\nwant %s", trial, gotJS.Bytes(), wantJS.Bytes())
		}
		if got, want := l.Summary(), ref.summary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Summary %+v, want %+v", trial, got, want)
		}
		if l.Total() != ref.total || l.Len() != len(ref.buf) {
			t.Fatalf("trial %d: total/len %d/%d, want %d/%d", trial, l.Total(), l.Len(), ref.total, len(ref.buf))
		}
		for _, k := range []string{KindMBPrefetch, KindShed, KindScaleDown, StallPE, StallNone, "", "never"} {
			if got := l.CountKind(k); got != ref.byKind[k] {
				t.Fatalf("trial %d: CountKind(%q) = %d, want %d", trial, k, got, ref.byKind[k])
			}
			if got := l.CountStall(k); got != ref.byStall[k] {
				t.Fatalf("trial %d: CountStall(%q) = %d, want %d", trial, k, got, ref.byStall[k])
			}
		}
	}
}

// TestSlotsMatchVocabularies pins the typed slots to the names they
// stand for: Fold adds a Log's slot tallies to the ledger's by
// position.
func TestSlotsMatchVocabularies(t *testing.T) {
	kinds := map[KindSlot]string{SlotMBPrefetch: KindMBPrefetch, SlotCBMerge: KindCBMerge,
		SlotEarlyEvict: KindEarlyEvict, SlotCBSplit: KindCBSplit, SlotPreempt: KindPreempt, SlotLookahead: KindLookahead,
		SlotShed: KindShed, SlotScaleUp: KindScaleUp, SlotScaleDown: KindScaleDown}
	if len(kinds) != int(numKindSlots) {
		t.Fatalf("%d kind slots named, want %d", len(kinds), numKindSlots)
	}
	for slot, name := range kinds {
		if ledgerKinds[slot] != name {
			t.Errorf("kind slot %d is %q, want %q", slot, ledgerKinds[slot], name)
		}
	}
	stalls := map[StallSlot]string{SlotHBM: StallHBM, SlotPE: StallPE, SlotNone: StallNone}
	if len(stalls) != int(numStallSlots) {
		t.Fatalf("%d stall slots named, want %d", len(stalls), numStallSlots)
	}
	for slot, name := range stalls {
		if ledgerStalls[slot] != name {
			t.Errorf("stall slot %d is %q, want %q", slot, ledgerStalls[slot], name)
		}
	}
}
