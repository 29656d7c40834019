package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/obs"
	"aimt/internal/serve"
)

// TestDispatchLedgerPinned pins what the front door writes into the
// decision ledger, next to what the engines write: one ledger shared by
// a small controlled sweep (admission and autoscaling on, per-chip load
// 3, least-work and predictive at 2 and 4 chips, over the default mix
// and a two-band priority mix) must read byte for byte as recorded —
// its summary and every retained decision, shed and scale decisions
// included, in order. The sweep runs on one worker so the engines fold
// into the ledger in job order. Regenerate after an intentional change
// with:
//
//	go test -run TestDispatchLedgerPinned ./internal/cluster/ -update
func TestDispatchLedgerPinned(t *testing.T) {
	cfg := arch.PaperConfig()
	twoBand := serve.DefaultClasses()
	twoBand[0].Priority = 1
	mixes := []struct {
		name    string
		classes []serve.Class
	}{
		{"default", serve.DefaultClasses()},
		{"two-band", twoBand},
	}
	var pols []Spec
	for _, name := range []string{"least-work", "predictive"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pols = append(pols, spec)
	}

	led := obs.NewLedger(0) // retains every decision of this sweep
	for _, mix := range mixes {
		for _, chips := range []int{2, 4} {
			gaps, err := serve.Gaps(cfg, mix.classes, 3.0*float64(chips))
			if err != nil {
				t.Fatal(err)
			}
			var routes []Route
			for _, p := range pols {
				routes = append(routes, Route{Policy: p, Chips: chips})
			}
			_, err = Sweep(cfg, mix.classes, []serve.SchedulerSpec{aimtSpec()}, SweepOptions{
				Options: Options{
					Workers: 1,
					Ledger:  led,
					Control: Control{Admission: true, Autoscale: true},
				},
				Stream: serve.StreamOptions{Requests: 12, Seed: 21},
				Gaps:   gaps,
				Routes: routes,
			})
			if err != nil {
				t.Fatalf("%s x%d: %v", mix.name, chips, err)
			}
		}
	}

	var out bytes.Buffer
	sum, err := json.Marshal(led.Summary())
	if err != nil {
		t.Fatal(err)
	}
	out.Write(sum)
	out.WriteByte('\n')
	if err := led.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "dispatch_ledger.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("ledger output drifted from %s (use -update if intentional); got %d bytes, want %d",
			path, out.Len(), len(want))
	}
}
