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

// randomDecision draws a decision whose names come from both
// vocabularies, from outside them and the empty name, and whose
// integers include the extremes.
func randomDecision(rng *rand.Rand) Decision {
	kinds := append(append([]string(nil), ledgerKinds...), "custom", "other-kind", "")
	stalls := append(append([]string(nil), ledgerStalls...), "odd", "mb-prefetch")
	ints := []int{0, 1, -1, 42, math.MaxInt, math.MinInt, math.MaxInt32 + 1}
	n := func() int {
		if rng.Intn(3) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Intn(1000)
	}
	c := func() arch.Cycles { return arch.Cycles(n()) }
	return Decision{
		Seq:   int64(n()), // Record assigns its own
		Cycle: c(), Kind: kinds[rng.Intn(len(kinds))],
		Net: n(), Layer: n(), Iter: n(),
		SRAMUsed: n(), SRAMTotal: n(), AvailCB: c(),
		Stall: stalls[rng.Intn(len(stalls))], Detail: c(), Horizon: c(),
	}
}

// TestLedgerMatchesReference is the ledger's differential test: over
// random decision streams, across ring wrap and capacity 1, the ledger
// reads back exactly what the reference ring of plain Decisions holds —
// Each, Tail, the WriteJSONL bytes, Summary and the lifetime counters.
func TestLedgerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		capacity := []int{1, 2, 3, 7, 64}[trial%5]
		l, ref := NewLedger(capacity), newRefLedger(capacity)
		for i, steps := 0, rng.Intn(4*capacity+10); i < steps; i++ {
			d := randomDecision(rng)
			if rng.Intn(2) == 0 {
				l.Record(d)
			} else {
				l.Note(d.Kind, d.Stall, d.Cycle, d.Net, d.Layer, d.Iter, d.SRAMUsed, d.SRAMTotal, d.AvailCB, d.Detail, d.Horizon)
			}
			ref.record(d)
		}

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
		for _, k := range []string{KindMBPrefetch, KindShed, "custom", "", "never"} {
			if got := l.CountKind(k); got != ref.byKind[k] {
				t.Fatalf("trial %d: CountKind(%q) = %d, want %d", trial, k, got, ref.byKind[k])
			}
			if got := l.CountStall(k); got != ref.byStall[k] {
				t.Fatalf("trial %d: CountStall(%q) = %d, want %d", trial, k, got, ref.byStall[k])
			}
		}
	}
}
