package obs

import (
	"testing"

	"aimt/internal/arch"
)

// BenchmarkLedgerNote measures the ledger's one write path as the
// engine drives it: one Log.Note into a warm, full log of the default
// capacity, with the log folded into a full ledger every
// DefaultLedgerCap notes (so each op carries its share of one block
// copy), over the engine's decision mix (prefetches and merges
// dominate, splits and evictions are rare) and the field values a
// serving run records.
func BenchmarkLedgerNote(b *testing.B) {
	kinds := [...]KindSlot{SlotMBPrefetch, SlotCBMerge, SlotMBPrefetch, SlotCBMerge,
		SlotMBPrefetch, SlotCBMerge, SlotEarlyEvict, SlotCBSplit}
	stalls := [...]StallSlot{SlotNone, SlotHBM, SlotPE, SlotNone}
	note := func(g *Log, i int) {
		g.Note(kinds[i%len(kinds)], stalls[i%len(stalls)], arch.Cycles(i),
			i%64, i%20, i%7, i%256, arch.Cycles(i%5000), arch.Cycles(i%900), 0)
	}
	l := NewLedger(DefaultLedgerCap)
	var g Log
	g.Reset(l, 256)
	for i := 0; i < DefaultLedgerCap; i++ {
		note(&g, i)
	}
	l.Fold(&g)
	for i := 0; i < DefaultLedgerCap; i++ {
		note(&g, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		note(&g, i)
		if (i+1)%DefaultLedgerCap == 0 {
			l.Fold(&g)
		}
	}
}
