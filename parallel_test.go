package aimt

import (
	"bytes"
	"reflect"
	"testing"
)

// TestSweepParallelismDeterminism is the sweep engine's contract at
// the experiment level: a serial run and a -parallel 8 run of every
// figure built on the grid planner produce exactly equal outcomes —
// every simulation result, unrounded — and byte-identical printed
// output. Run under `go test -race` (the Makefile check target does)
// this also proves the fan-out is data-race free.
func TestSweepParallelismDeterminism(t *testing.T) {
	cfg := PaperConfig()
	defer SetSweepParallelism(0)
	grids := map[string]func(Config) (figGrid, error){
		"fig7":      fig7Grid,
		"fig8":      fig8Grid,
		"fig14":     fig14Grid,
		"fig15":     func(cfg Config) (figGrid, error) { return fig15Grid(cfg, fig15Batches) },
		"fig16":     func(cfg Config) (figGrid, error) { return fig16Grid(cfg, fig16Sizes) },
		"lookahead": lookaheadGrid,
	}
	for _, e := range Experiments() {
		grid, ok := grids[e.ID]
		if !ok {
			continue
		}
		delete(grids, e.ID)
		t.Run(e.ID, func(t *testing.T) {
			var out [2]bytes.Buffer
			var g [2]figGrid
			for i, workers := range []int{1, 8} {
				SetSweepParallelism(workers)
				var err error
				if g[i], err = grid(cfg); err != nil {
					t.Fatal(err)
				}
				if err := e.Run(&out[i], cfg); err != nil {
					t.Fatal(err)
				}
			}
			for r := range g[0].out {
				for c := range g[0].out[r] {
					if s, p := g[0].out[r][c], g[1].out[r][c]; !reflect.DeepEqual(s, p) {
						t.Errorf("%s/%s differs:\nserial:   %+v\nparallel: %+v", s.Mix, s.Scheduler, *s.Res, *p.Res)
					}
				}
			}
			if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
				t.Errorf("output not byte-identical:\n--- serial\n%s--- parallel\n%s", &out[0], &out[1])
			}
		})
	}
	for id := range grids {
		t.Errorf("experiment %q missing", id)
	}
}

// TestServingDeterminism covers the arrival-driven path (shared
// Arrivals slice across concurrent jobs) the same way.
func TestServingDeterminism(t *testing.T) {
	cfg := PaperConfig()
	defer SetSweepParallelism(0)
	SetSweepParallelism(1)
	serial, err := servingData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	SetSweepParallelism(8)
	parallel, err := servingData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serving points differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
