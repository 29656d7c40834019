package aimt

import (
	"reflect"
	"strings"
	"testing"

	"aimt/internal/obs"
	"aimt/internal/rtrace"
	"aimt/internal/sched"
	"aimt/internal/serve"
)

// lookaheadStream is a contended serving mix: the default classes mix
// compute-heavy CNN requests with memory-intensive RNN requests, so
// both block classes are regularly issuable at once — exactly the
// decisions Lookahead resolves by forward simulation.
func lookaheadStream(t *testing.T, requests int) (*serve.Stream, RunOptions) {
	t.Helper()
	cfg := PaperConfig()
	stream, err := serve.NewStream(cfg, DefaultServingClasses(), ServeStreamOptions{
		Requests: requests,
		Process:  ServePoisson,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return stream, RunOptions{
		Arrivals:   stream.Arrivals,
		ChainAfter: stream.ChainAfter,
	}
}

// TestLookaheadDeterministic runs the speculative scheduler twice on
// the same stream and demands bit-identical results: speculation
// (snapshot, fork, restore) must be a pure function of machine state,
// with no hidden run-to-run state.
func TestLookaheadDeterministic(t *testing.T) {
	cfg := PaperConfig()
	stream, opts := lookaheadStream(t, 50)
	opts.CheckInvariants = true
	mk := func() Scheduler { return sched.NewLookahead(NewAIMT(cfg, AllMechanisms()), 2048) }
	a, err := Run(cfg, stream.Nets, mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, stream.Nets, mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lookahead runs diverged:\n got %+v\nwant %+v", b, a)
	}
}

// TestLookaheadSpeculationLeavesNoTrace runs Lookahead with full
// observability attached and checks the speculative branches are
// invisible: every recorded prefetch decision corresponds to a real
// committed fetch (ledger prefetch count == Result.MBCount), the
// request tracer, attached directly so the engine feeds it by kind,
// logs exactly the committed blocks and splits, and the lookahead
// counter matches the ledger's lookahead entries, each of which
// carries its horizon and a strictly positive predicted delta.
func TestLookaheadSpeculationLeavesNoTrace(t *testing.T) {
	cfg := PaperConfig()
	stream, opts := lookaheadStream(t, 50)
	reg := NewObsRegistry()
	led := NewObsLedger(1 << 20)
	col := rtrace.NewCollector(len(stream.Nets))
	opts.Metrics = reg
	opts.Ledger = led
	opts.Tracer = col
	const horizon = 2048
	res, err := Run(cfg, stream.Nets, sched.NewLookahead(NewAIMT(cfg, AllMechanisms()), horizon), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := led.CountKind(obs.KindMBPrefetch), int64(res.MBCount); got != want {
		t.Errorf("ledger records %d prefetches, result has %d fetched blocks — speculation leaked", got, want)
	}
	logged := map[string]int{}
	for _, e := range col.Events(stream.Nets) {
		kind, _, _ := strings.Cut(e.Name, ":")
		logged[kind]++
	}
	for kind, want := range map[string]int{"MB": res.MBCount, "CB": res.CBCount, "CB(split)": res.Splits} {
		if logged[kind] != want {
			t.Errorf("tracer logged %d %s intervals, result has %d — speculation leaked", logged[kind], kind, want)
		}
	}
	commits := led.CountKind(obs.KindLookahead)
	if commits == 0 {
		t.Fatal("contended mix produced no committed lookahead decisions; the speculation path is dead")
	}
	if got := reg.Counter("aimt_sim_lookahead_total").Value(); got != commits {
		t.Errorf("aimt_sim_lookahead_total=%d, ledger has %d lookahead decisions", got, commits)
	}
	led.Each(func(d obs.Decision) bool {
		if d.Kind != obs.KindLookahead {
			return true
		}
		if d.Horizon != horizon {
			t.Errorf("lookahead decision at cycle %d has horizon %d, want %d", d.Cycle, d.Horizon, horizon)
		}
		if d.Detail <= 0 {
			t.Errorf("lookahead decision at cycle %d has predicted delta %d, want > 0", d.Cycle, d.Detail)
		}
		return true
	})
}

// TestLookaheadNeverWorseOnContendedMixes asserts the lookahead
// experiment's headline property over its full grid: on every
// contended mix, batch and horizon, Lookahead(AI-MT)'s makespan is at
// most AI-MT's, and at least one cell is a strict win. The strictly-
// better-else-delegate commit rule is what makes the first half hold;
// the second half proves the speculation actually pays somewhere
// rather than always deferring.
func TestLookaheadNeverWorseOnContendedMixes(t *testing.T) {
	g, err := lookaheadGrid(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.rows) == 0 {
		t.Fatal("lookahead experiment produced no points")
	}
	wins := 0
	for r, row := range g.rows {
		aimt := g.out[r][0].Res.Makespan
		for c, h := range lookaheadHorizons {
			la := g.out[r][c+1].Res.Makespan
			if la > aimt {
				t.Errorf("%s horizon %d: Lookahead makespan %d exceeds AI-MT's %d", row.label, h, la, aimt)
			}
			if la < aimt {
				wins++
			}
		}
	}
	if wins == 0 {
		t.Error("Lookahead never beat AI-MT on any contended configuration")
	}
}
