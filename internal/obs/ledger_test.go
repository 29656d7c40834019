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
	var g Log
	g.Reset(l, 0)
	for i := 0; i < 10; i++ {
		kind := SlotMBPrefetch
		if i%2 == 1 {
			kind = SlotCBMerge
		}
		g.Note(kind, SlotNone, arch.Cycles(100*i), 0, 0, 0, 0, 0, 0, 0)
		if i%3 == 2 {
			l.Fold(&g)
		}
	}
	l.Fold(&g)
	if dropped := l.Summary().Dropped; l.Len() != 4 || l.Total() != 10 || dropped != 6 {
		t.Fatalf("len/total/dropped = %d/%d/%d, want 4/10/6", l.Len(), l.Total(), dropped)
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
	merges := 0
	l.Each(func(d Decision) bool {
		if d.Kind == KindCBMerge {
			merges++
		}
		return true
	})
	if merges != 2 {
		t.Errorf("ring kept %d cb-merge decisions, want 2", merges)
	}
	sum := l.Summary()
	if sum.Total != 10 || sum.Dropped != 6 || sum.ByKind[KindMBPrefetch] != 5 {
		t.Errorf("Summary = %+v", sum)
	}
}

// TestLedgerSummaryKeys pins the counting vocabulary: Summary lists
// exactly the kinds and stalls that were recorded, the counters agree
// with it, and a name outside the vocabulary counts zero.
func TestLedgerSummaryKeys(t *testing.T) {
	l := NewLedger(2)
	var g Log
	g.Reset(l, 0)
	g.Note(SlotShed, SlotNone, 0, 0, 0, 0, 0, 0, 0, 0)
	g.Note(SlotCBSplit, SlotPE, 0, 0, 0, 0, 0, 0, 0, 0)
	g.Note(SlotScaleDown, SlotHBM, 0, 0, 0, 0, 0, 0, 0, 0)
	g.Note(SlotScaleDown, SlotPE, 0, 0, 0, 0, 0, 0, 0, 0)
	l.Fold(&g)
	sum := l.Summary()
	wantKind := map[string]int64{KindShed: 1, KindCBSplit: 1, KindScaleDown: 2}
	wantStall := map[string]int64{StallNone: 1, StallPE: 2, StallHBM: 1}
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
	if got := l.CountKind(KindMBPrefetch) + l.CountKind("never") + l.CountStall("") + l.CountStall(KindShed); got != 0 {
		t.Errorf("unrecorded names count %d, want 0", got)
	}
	if got := NewLedger(1).Summary(); got.ByKind == nil || len(got.ByKind) != 0 || got.ByStall == nil || len(got.ByStall) != 0 {
		t.Errorf("empty ledger summary = %+v, want empty non-nil maps", got)
	}
}

func TestLedgerEachEarlyStop(t *testing.T) {
	l := NewLedger(8)
	var g Log
	g.Reset(l, 0)
	for i := 0; i < 5; i++ {
		g.Note(SlotCBMerge, SlotNone, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	l.Fold(&g)
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
