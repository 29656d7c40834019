package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/hdr"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestRegistryHandlesAreStable(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("Counter returned distinct handles for one name")
	}
	if reg.Counter("a") == reg.Counter("b") {
		t.Error("Counter shared a handle across names")
	}
	if reg.Gauge("g") != reg.Gauge("g") || reg.Histogram("h") != reg.Histogram("h") {
		t.Error("Gauge/Histogram handles not stable")
	}
}

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3) // ignored: counters are monotone
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Errorf("Value = %d, want 6", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("Value = %v, want 1.5", got)
	}
}

func TestLabelHelpers(t *testing.T) {
	cases := []struct{ name, key, val, want string }{
		{"reqs", "class", "cnn", `reqs{class="cnn"}`},
		{`reqs{sched="EDF"}`, "class", "rnn", `reqs{sched="EDF",class="rnn"}`},
	}
	for _, c := range cases {
		if got := Label(c.name, c.key, c.val); got != c.want {
			t.Errorf("Label(%q,%q,%q) = %q, want %q", c.name, c.key, c.val, got, c.want)
		}
	}
	if got := family(`reqs{class="cnn"}`); got != "reqs" {
		t.Errorf("family = %q, want reqs", got)
	}
	if got := suffixed(`h{c="x"}`, "_sum"); got != `h_sum{c="x"}` {
		t.Errorf("suffixed = %q", got)
	}
}

// TestConcurrentUpdatesAndScrape hammers one registry from many
// goroutines — counter adds, gauge moves, histogram observations and
// fresh-series creation — while a scraper renders both expositions.
// Run under -race this is the registry's data-race gate; the final
// counts must still be exact.
func TestConcurrentUpdatesAndScrape(t *testing.T) {
	const (
		workers = 8
		iters   = 2000
	)
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := reg.Counter(fmt.Sprintf("own_total{worker=\"%d\"}", w))
			for i := 0; i < iters; i++ {
				reg.Counter("shared_total").Inc()
				own.Inc()
				reg.Gauge("shared_gauge").Add(1)
				reg.Histogram("shared_hist").Observe(arch.Cycles(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			if err := reg.WriteJSON(&buf); err != nil {
				t.Errorf("WriteJSON: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := reg.Counter("shared_total").Value(); got != workers*iters {
		t.Errorf("shared counter = %d, want %d", got, workers*iters)
	}
	if got := reg.Gauge("shared_gauge").Value(); got != workers*iters {
		t.Errorf("shared gauge = %v, want %d", got, workers*iters)
	}
	if got := reg.Histogram("shared_hist").Snapshot().Count; got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("own_total{worker=\"%d\"}", w)
		if got := reg.Counter(name).Value(); got != iters {
			t.Errorf("%s = %d, want %d", name, got, iters)
		}
	}
}

// fixedRegistry builds a deterministic registry and ledger for the
// golden expositions: labeled and bare series of every type.
func fixedRegistry() (*Registry, *Ledger) {
	reg := NewRegistry()
	reg.Counter("aimt_sim_mb_prefetch_total").Add(42)
	reg.Counter(`aimt_serve_requests_total{scheduler="AI-MT"}`).Add(300)
	reg.Counter(`aimt_serve_requests_total{scheduler="EDF"}`).Add(300)
	reg.Gauge("aimt_sim_sram_used_blocks").Set(48)
	reg.Gauge(`aimt_sim_inflight{class="rnn"}`).Set(3)
	h := reg.Histogram("aimt_sim_cb_cycles")
	for v := arch.Cycles(1); v <= 100; v++ {
		h.Observe(v)
	}
	led := NewLedger(8)
	led.Record(Decision{Cycle: 100, Kind: KindMBPrefetch, Net: 0, Layer: 1, Iter: 2,
		SRAMUsed: 4, SRAMTotal: 8, AvailCB: 60, Stall: StallNone, Detail: 50})
	led.Record(Decision{Cycle: 160, Kind: KindEarlyEvict, Net: 1, Layer: 0, Iter: 0,
		SRAMUsed: 8, SRAMTotal: 8, AvailCB: 10, Stall: StallPE, Detail: 240})
	led.Record(Decision{Cycle: 400, Kind: KindCBSplit, Net: 0, Layer: 1, Iter: 3,
		SRAMUsed: 6, SRAMTotal: 8, Stall: StallPE, Detail: 1200})
	return reg, led
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (use -update if intentional):\n--- got\n%s--- want\n%s",
			path, got, want)
	}
}

func TestPrometheusGolden(t *testing.T) {
	reg, _ := fixedRegistry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", buf.Bytes())

	// Scrapes must be deterministic: a second render is identical.
	var again bytes.Buffer
	if err := reg.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of one registry state differ")
	}
}

func TestSnapshotJSONGolden(t *testing.T) {
	reg, _ := fixedRegistry()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", buf.Bytes())
}

// TestHistogramMergeMatchesObserve pins that folding a local histogram
// in with Merge, in several batches, leaves the snapshot that observing
// every value one at a time does.
func TestHistogramMergeMatchesObserve(t *testing.T) {
	vals := []arch.Cycles{0, -3, 1, 63, 64, 65, 1000, 7, 123456789, 5, 1 << 40, 64}
	var observed, merged Histogram
	var local hdr.Histogram
	for i, v := range vals {
		observed.Observe(v)
		local.Record(v)
		if i%5 == 4 || i == len(vals)-1 {
			merged.Merge(&local)
			local.Reset()
		}
	}
	if got, want := merged.Snapshot(), observed.Snapshot(); got != want {
		t.Errorf("merged snapshot %+v, want %+v", got, want)
	}
}
