package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"aimt/internal/arch"
)

func TestLedgerRingEviction(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 10; i++ {
		kind := KindMBPrefetch
		if i%2 == 1 {
			kind = KindCBMerge
		}
		l.Record(Decision{Cycle: arch.Cycles(100 * i), Kind: kind, Stall: StallNone})
	}
	if l.Len() != 4 || l.Total() != 10 || l.Dropped() != 6 {
		t.Fatalf("len/total/dropped = %d/%d/%d, want 4/10/6", l.Len(), l.Total(), l.Dropped())
	}
	// Lifetime per-kind counts survive ring eviction.
	if l.CountKind(KindMBPrefetch) != 5 || l.CountKind(KindCBMerge) != 5 {
		t.Errorf("per-kind counts = %d/%d, want 5/5",
			l.CountKind(KindMBPrefetch), l.CountKind(KindCBMerge))
	}
	if l.CountStall(StallNone) != 10 {
		t.Errorf("CountStall(none) = %d, want 10", l.CountStall(StallNone))
	}
	// The ring retains the newest entries, oldest first, with global
	// sequence numbers.
	tail := l.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("Tail(0) returned %d entries, want 4", len(tail))
	}
	for i, d := range tail {
		if want := int64(6 + i); d.Seq != want {
			t.Errorf("tail[%d].Seq = %d, want %d", i, d.Seq, want)
		}
	}
	if got := l.Tail(2); len(got) != 2 || got[0].Seq != 8 || got[1].Seq != 9 {
		t.Errorf("Tail(2) = %+v, want seqs 8,9", got)
	}
	if got := l.Filter(KindCBMerge); len(got) != 2 {
		t.Errorf("Filter(cb-merge) kept %d of the ring, want 2", len(got))
	}
	sum := l.Summary()
	if sum.Total != 10 || sum.Dropped != 6 || sum.ByKind[KindMBPrefetch] != 5 {
		t.Errorf("Summary = %+v", sum)
	}
}

// TestLedgerSummaryKeys pins the counting vocabulary: Summary lists
// exactly the kinds and stalls that were recorded, known or not, and
// the counters agree with it.
func TestLedgerSummaryKeys(t *testing.T) {
	l := NewLedger(2)
	l.Record(Decision{Kind: KindShed})
	l.Record(Decision{Kind: KindCBSplit, Stall: StallPE})
	l.Record(Decision{Kind: "custom", Stall: "odd"})
	l.Record(Decision{Kind: "custom", Stall: StallPE})
	sum := l.Summary()
	wantKind := map[string]int64{KindShed: 1, KindCBSplit: 1, "custom": 2}
	wantStall := map[string]int64{"": 1, StallPE: 2, "odd": 1}
	if !reflect.DeepEqual(sum.ByKind, wantKind) || !reflect.DeepEqual(sum.ByStall, wantStall) {
		t.Errorf("Summary by kind %v, by stall %v; want %v, %v", sum.ByKind, sum.ByStall, wantKind, wantStall)
	}
	for k, n := range wantKind {
		if got := l.CountKind(k); got != n {
			t.Errorf("CountKind(%q) = %d, want %d", k, got, n)
		}
	}
	for k, n := range wantStall {
		if got := l.CountStall(k); got != n {
			t.Errorf("CountStall(%q) = %d, want %d", k, got, n)
		}
	}
	if got := l.CountKind(KindMBPrefetch) + l.CountStall(StallHBM) + l.CountKind("never"); got != 0 {
		t.Errorf("unrecorded names count %d, want 0", got)
	}
	if got := NewLedger(1).Summary(); got.ByKind == nil || len(got.ByKind) != 0 || got.ByStall == nil || len(got.ByStall) != 0 {
		t.Errorf("empty ledger summary = %+v, want empty non-nil maps", got)
	}
}

func TestLedgerEachEarlyStop(t *testing.T) {
	l := NewLedger(8)
	for i := 0; i < 5; i++ {
		l.Record(Decision{Kind: KindCBMerge, Stall: StallNone})
	}
	seen := 0
	l.Each(func(Decision) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("Each visited %d entries after early stop, want 3", seen)
	}
}

func TestLedgerWriteJSONL(t *testing.T) {
	_, led := fixedRegistry()
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d: %v", len(kinds), err)
		}
		kinds = append(kinds, d.Kind)
	}
	want := []string{KindMBPrefetch, KindEarlyEvict, KindCBSplit}
	if len(kinds) != len(want) {
		t.Fatalf("wrote %d lines, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("line %d kind = %s, want %s", i, kinds[i], want[i])
		}
	}
}
