package aimt

import (
	"bytes"
	"strings"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/metrics"
	"aimt/internal/power"
)

// These tests assert the qualitative shapes the paper's evaluation
// reports — who wins, by roughly what factor, where crossovers fall —
// on the reproduced experiments. Absolute cycle counts are not
// compared (our substrate is a simulator, not the authors' testbed).

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5Data(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("VGG16 rows = %d, want 16", len(rows))
	}
	// Early conv layers are compute-dominated; the FC tail is
	// memory-dominated (paper §III-A).
	if f := rows[0].ComputeFraction(); f < 0.9 {
		t.Errorf("first conv compute fraction = %.2f, want > 0.9", f)
	}
	for _, r := range rows[13:] {
		if f := r.ComputeFraction(); f > 0.5 {
			t.Errorf("%s compute fraction = %.2f, want < 0.5 (memory-bound FC)", r.Name, f)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7Data(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("mixes = %d, want 8", len(rows))
	}
	for _, r := range rows {
		// The paper's point: RR leaves severe resource idleness.
		if r.PEUtil > 0.95 && r.MemUtil > 0.95 {
			t.Errorf("%s: RR fully utilized (%f/%f) — no idleness to recover", r.Mix, r.PEUtil, r.MemUtil)
		}
		if r.PEUtil <= 0 || r.PEUtil > 1 || r.MemUtil <= 0 || r.MemUtil > 1 {
			t.Errorf("%s: utilization out of range %f/%f", r.Mix, r.PEUtil, r.MemUtil)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8Data(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	bySched := map[string][]float64{}
	for _, r := range rows {
		bySched[r.Scheduler] = append(bySched[r.Scheduler], r.Speedup)
		// No baseline deviates wildly from FIFO (paper Fig 8: all
		// within ~0.9-1.2 of the baseline).
		if r.Speedup < 0.85 || r.Speedup > 1.3 {
			t.Errorf("%s under %s: speedup %.3f outside the baseline band", r.Mix, r.Scheduler, r.Speedup)
		}
	}
	for _, s := range []string{"RR", "Greedy", "SJF"} {
		if len(bySched[s]) != 8 {
			t.Errorf("%s rows = %d, want 8", s, len(bySched[s]))
		}
	}
}

func TestFig10Shape(t *testing.T) {
	data, err := Fig10Data(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 5 {
		t.Fatalf("networks = %d, want 5", len(data))
	}
	// §III-C: even single-batch execution can require over 10 MB.
	over := 0
	for name, d := range data {
		max := arch.Bytes(0)
		for _, x := range d {
			if x.Bytes > max {
				max = x.Bytes
			}
		}
		if max > 10*MiB {
			over++
		}
		if max <= 0 {
			t.Errorf("%s: zero prefetch demand", name)
		}
	}
	if over == 0 {
		t.Error("no network exceeds 10 MiB prefetch demand")
	}
}

func TestFig14Shape(t *testing.T) {
	rows, err := Fig14Data(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp := map[string]map[string]float64{}
	for _, r := range rows {
		if sp[r.Scheduler] == nil {
			sp[r.Scheduler] = map[string]float64{}
		}
		sp[r.Scheduler][r.Mix] = r.Speedup
	}
	geo := func(s string) float64 {
		var vals []float64
		for _, v := range sp[s] {
			vals = append(vals, v)
		}
		return metrics.GeoMean(vals)
	}
	pf, mg, all := geo("AI-MT(PF)"), geo("AI-MT(PF+Merge)"), geo("AI-MT(All)")
	t.Logf("geomeans: PF=%.3f Merge=%.3f All=%.3f", pf, mg, all)

	// Ordering: each mechanism adds (or at worst preserves) speedup.
	if mg < pf-0.02 {
		t.Errorf("merging geomean %.3f below prefetching %.3f", mg, pf)
	}
	if all < mg-0.02 {
		t.Errorf("full design geomean %.3f below merging %.3f", all, mg)
	}
	// Magnitudes: prefetching alone is a modest win (paper: 1.13
	// geomean); the full design's best mix lands in the paper's band
	// (up to 1.57; ours peaks around 1.4).
	if pf < 1.02 {
		t.Errorf("prefetch geomean %.3f, want > 1.02", pf)
	}
	best := 0.0
	for _, v := range sp["AI-MT(All)"] {
		if v > best {
			best = v
		}
	}
	if best < 1.25 || best > 1.7 {
		t.Errorf("best AI-MT speedup %.3f outside the paper's band [1.25, 1.7]", best)
	}
	// GNMT co-locations gain more than VGG16 co-locations (paper
	// §V-B).
	var gnmt, vgg []float64
	for mix, v := range sp["AI-MT(All)"] {
		if strings.Contains(mix, "GNMT") {
			gnmt = append(gnmt, v)
		} else {
			vgg = append(vgg, v)
		}
	}
	if metrics.GeoMean(gnmt) <= metrics.GeoMean(vgg) {
		t.Errorf("GNMT mixes (%.3f) do not outgain VGG16 mixes (%.3f)",
			metrics.GeoMean(gnmt), metrics.GeoMean(vgg))
	}
}

func TestFig15Shape(t *testing.T) {
	pts, err := Fig15Data(PaperConfig(), []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Eviction's advantage over merge-only grows with batch size
	// (paper §V-C): at batch >= 4 the full design must lead clearly on
	// the RN34+GNMT and RN50+GNMT mixes.
	gap := map[int][]float64{}
	for _, p := range pts {
		gap[p.Batch] = append(gap[p.Batch], p.AllSpeedup-p.MergeSpeedup)
	}
	mean := func(b int) float64 {
		var s float64
		for _, v := range gap[b] {
			s += v
		}
		return s / float64(len(gap[b]))
	}
	if mean(16) <= mean(1) {
		t.Errorf("eviction gap at batch 16 (%.3f) not above batch 1 (%.3f)", mean(16), mean(1))
	}
	for _, p := range pts {
		if p.AllSpeedup < 0.8 {
			t.Errorf("%s batch %d: AI-MT speedup %.3f collapsed", p.Mix, p.Batch, p.AllSpeedup)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	sizes := []Bytes{512 * KiB, 1 * MiB, 64 * MiB, 1 * GiB}
	pts, err := Fig16Data(PaperConfig(), sizes)
	if err != nil {
		t.Fatal(err)
	}
	bySize := map[Bytes]map[string]float64{}
	for _, p := range pts {
		bySize[p.SRAM] = p.Speedups
	}
	// The headline (§V-D): AI-MT at 1 MB is within a few percent of
	// every policy's best speedup at any capacity, while the naive and
	// greedy prefetchers need orders of magnitude more SRAM.
	aimtAt1MB := bySize[1*MiB]["AI-MT"]
	naiveAt1GB := bySize[1*GiB]["ComputeFirst+PF"]
	if aimtAt1MB < naiveAt1GB*0.93 {
		t.Errorf("AI-MT at 1 MiB (%.3f) far below naive at 1 GiB (%.3f)", aimtAt1MB, naiveAt1GB)
	}
	if naive := bySize[1*MiB]["ComputeFirst+PF"]; naive > aimtAt1MB*0.85 {
		t.Errorf("naive at 1 MiB (%.3f) too close to AI-MT (%.3f) — capacity should bind it", naive, aimtAt1MB)
	}
	// Greedy+PF improves with capacity.
	if bySize[1*GiB]["Greedy+PF"] <= bySize[1*MiB]["Greedy+PF"] {
		t.Error("Greedy+PF does not improve with SRAM capacity")
	}
}

// TestServingShape pins the serving experiment's claim: on the open-
// loop stream, AI-MT finishes first and keeps the PE array the busiest
// of FIFO, PREMA and AI-MT.
func TestServingShape(t *testing.T) {
	pts, err := ServingData(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[2].Scheduler != "AI-MT" {
		t.Fatalf("serving points %+v, want FIFO, PREMA, AI-MT", pts)
	}
	ai := pts[2]
	for _, p := range pts[:2] {
		if ai.Makespan >= p.Makespan {
			t.Errorf("AI-MT makespan %d not below %s's %d", ai.Makespan, p.Scheduler, p.Makespan)
		}
		if ai.PEUtil <= p.PEUtil {
			t.Errorf("AI-MT PE util %.3f not above %s's %.3f", ai.PEUtil, p.Scheduler, p.PEUtil)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2Rows()
	want := map[string][2]int{
		"ResNet34":  {1, 36},
		"ResNet50":  {1, 53},
		"VGG16":     {3, 13},
		"MobileNet": {1, 27},
		"GNMT":      {6, 0},
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected row %q", r.Name)
			continue
		}
		if r.FC != w[0] || r.Conv != w[1] {
			t.Errorf("%s: FC=%d CONV=%d, want %d/%d", r.Name, r.FC, r.Conv, w[0], w[1])
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows := Table3Rows(PaperConfig(), 5)
	if f := power.OverheadFraction(rows); f > 0.005 {
		t.Errorf("AI-MT structure overhead %.4f, want < 0.5%% (paper: negligible)", f)
	}
}

// Every registered experiment runs and produces output.
func TestExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration is slow")
	}
	cfg := PaperConfig()
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		var buf bytes.Buffer
		if err := e.Run(&buf, cfg); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
	for _, id := range []string{"table1", "table2", "table3", "fig5", "fig7", "fig8", "fig10", "fig14", "fig15", "fig16"} {
		if !seen[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
}
