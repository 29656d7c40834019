package obs

import (
	"testing"

	"aimt/internal/arch"
)

// BenchmarkLedgerRecord measures one ledger append on a warm, full
// ring of the default capacity: the engine's decision mix (prefetches
// and merges dominate, splits and evictions are rare) with the field
// values a serving run records.
func BenchmarkLedgerRecord(b *testing.B) {
	kinds := [...]string{KindMBPrefetch, KindCBMerge, KindMBPrefetch, KindCBMerge,
		KindMBPrefetch, KindCBMerge, KindEarlyEvict, KindCBSplit}
	stalls := [...]string{StallNone, StallHBM, StallPE, StallNone}
	l := NewLedger(DefaultLedgerCap)
	for i := 0; i < DefaultLedgerCap; i++ {
		l.Record(Decision{Kind: kinds[i%len(kinds)], Stall: stalls[i%len(stalls)]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(Decision{
			Cycle:     arch.Cycles(i),
			Kind:      kinds[i%len(kinds)],
			Net:       i % 64,
			Layer:     i % 20,
			Iter:      i % 7,
			SRAMUsed:  i % 256,
			SRAMTotal: 256,
			AvailCB:   arch.Cycles(i % 5000),
			Stall:     stalls[i%len(stalls)],
			Detail:    arch.Cycles(i % 900),
		})
	}
}
