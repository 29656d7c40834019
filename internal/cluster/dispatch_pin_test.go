package cluster

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestDispatchPinned pins the front door's routing and control-plane
// decisions cell by cell: every routing policy (predictive included)
// under every control-plane shape, at 1, 2 and 4 chips, over a
// single-phase mix, a transformer mix with chained decode phases and a
// two-band priority mix. Each cell is one FNV-64a digest over the
// assignment, the shed mask (nil-ness included), the control-plane
// counters and every span's chip, shed verdict and dispatcher ETA, so
// any change to what the dispatcher decides fails here. Regenerate
// after an intentional change with:
//
//	go test -run TestDispatchPinned ./internal/cluster/ -update
func TestDispatchPinned(t *testing.T) {
	cfg := arch.PaperConfig()
	controls := []struct {
		name string
		ctl  Control
	}{
		{"off", Control{}},
		{"admission", Control{Admission: true}},
		{"autoscale", Control{Autoscale: true}},
		{"admission+autoscale", Control{Admission: true, Autoscale: true}},
	}
	twoBand := serve.DefaultClasses()
	twoBand[0].Priority = 1
	mixes := []struct {
		name    string
		classes []serve.Class
	}{
		{"default", serve.DefaultClasses()},
		{"transformer", serve.TransformerClasses()},
		{"two-band", twoBand},
	}

	var out bytes.Buffer
	for _, mix := range mixes {
		for _, chips := range []int{1, 2, 4} {
			gaps, err := serve.Gaps(cfg, mix.classes, 3.0*float64(chips))
			if err != nil {
				t.Fatal(err)
			}
			s, err := serve.NewStream(cfg, mix.classes, serve.StreamOptions{Requests: 40, MeanGap: gaps[0], Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Names() {
				pspec, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range controls {
					res, err := Serve(cfg, s, aimtSpec(), pspec.New(), Options{
						Chips:   chips,
						Control: c.ctl,
						Trace:   rtrace.NewStore(rtrace.Options{}),
					})
					if err != nil {
						t.Fatalf("%s/%s/x%d/%s: %v", mix.name, name, chips, c.name, err)
					}
					fmt.Fprintf(&out, "%s x%d %s %s %016x\n", mix.name, chips, name, c.name, dispatchDigest(res))
				}
			}
		}
	}

	path := filepath.Join("testdata", "dispatch.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("dispatch decisions drifted from %s (use -update if intentional):\n--- got\n%s--- want\n%s", path, out.String(), want)
	}
}

// dispatchDigest folds one cluster result's dispatch-time decisions
// into an FNV-64a digest.
func dispatchDigest(r *Result) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	put(int64(len(r.Assignment)))
	for _, c := range r.Assignment {
		put(int64(c))
	}
	putBool(r.Shed == nil)
	for _, sh := range r.Shed {
		putBool(sh)
	}
	put(int64(r.ShedCount))
	put(int64(r.ScaleUps))
	put(int64(r.ScaleDowns))
	put(int64(r.ActiveChips))
	put(int64(len(r.Spans)))
	for _, sp := range r.Spans {
		put(int64(sp.Req))
		put(int64(sp.Chip))
		putBool(sp.Shed)
		put(int64(sp.ETA))
	}
	return h.Sum64()
}
