package sim

import (
	"errors"
	"strings"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
)

// The invariant checker keeps shadow state derived purely from the
// event stream, so a scheduler (or an engine regression) that corrupts
// the engine's bookkeeping is caught at the first observable
// violation. These tests sabotage the machine deliberately and assert
// the checker fires; the positive direction — every legitimate
// scheduler passing with invariants on — is covered by the root
// package's property tests.

// spoofResidency is a deliberately broken scheduler: when a memory
// block completes it marks the whole layer as fetched, so compute
// blocks start before their weights arrive.
type spoofResidency struct{ NopHooks }

func (spoofResidency) Name() string { return "spoof-residency" }

func (spoofResidency) PickMB(v *View) (MBRef, bool) {
	for _, m := range v.MBCandidates(nil) {
		if v.IsMBIssuable(m) {
			return m, true
		}
	}
	return MBRef{}, false
}

func (spoofResidency) PickCB(v *View) (CBRef, bool) {
	cbs := v.ReadyCBs(nil)
	if len(cbs) == 0 {
		return CBRef{}, false
	}
	return cbs[0], true
}

func (spoofResidency) OnMBDone(v *View, r MBRef) {
	// The sabotage: pretend every sub-layer of the layer is resident.
	v.nets[r.Net].mbDone[r.Layer] = v.nets[r.Net].cn.Layers[r.Layer].Iters
}

func TestInvariantCatchesCBBeforeMB(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 5, iters: 2, blocks: 1})
	_, err := Run(cfg, []*compiler.CompiledNetwork{cn}, spoofResidency{}, Options{CheckInvariants: true})
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("err = %v, want ErrInvariant (CB started before its MB completed)", err)
	}
}

// workThief splits the executing compute block once and then inflates
// the halted remainder, so the resumed block executes more cycles than
// the layer owns — a split/resume that fails to conserve work.
type workThief struct {
	NopHooks
	split bool
	steal arch.Cycles
}

func (*workThief) Name() string { return "work-thief" }

func (w *workThief) PickMB(v *View) (MBRef, bool) {
	for _, m := range v.MBCandidates(nil) {
		if v.IsMBIssuable(m) {
			return m, true
		}
	}
	return MBRef{}, false
}

func (w *workThief) PickCB(v *View) (CBRef, bool) {
	cbs := v.ReadyCBs(nil)
	if len(cbs) == 0 {
		return CBRef{}, false
	}
	return cbs[0], true
}

func (w *workThief) OnMBDone(v *View, r MBRef) {
	if !w.split {
		if v.RequestSplit() {
			w.split = true
		}
	}
}

func (w *workThief) OnCBSplit(v *View, r CBRef, remaining arch.Cycles) {
	// The sabotage: tamper with the halted remainder.
	v.nets[r.Net].remnant[r.Layer] = remaining + w.steal
}

func TestInvariantCatchesSplitWorkLoss(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 5, cb: 50, iters: 3, blocks: 1})
	for _, steal := range []arch.Cycles{7, -7} {
		_, err := Run(cfg, []*compiler.CompiledNetwork{cn}, &workThief{steal: steal}, Options{CheckInvariants: true})
		if !errors.Is(err, ErrInvariant) {
			t.Errorf("steal %d: err = %v, want ErrInvariant (work not conserved)", steal, err)
		}
	}
	// The same split pattern without tampering must pass: the checker
	// accepts a legitimate halt/resume.
	res, err := Run(cfg, []*compiler.CompiledNetwork{cn}, &workThief{}, Options{CheckInvariants: true})
	if err != nil {
		t.Fatalf("legitimate split rejected: %v", err)
	}
	if res.Splits != 1 {
		t.Errorf("splits = %d, want 1", res.Splits)
	}
	if want := 3*50 + arch.Cycles(res.Splits)*cfg.FillLatency; res.PEBusy != want {
		t.Errorf("PEBusy = %d, want %d (work + refill per resume)", res.PEBusy, want)
	}
}

// ghostResume fabricates a halted remainder that never came from a
// split: after a compute block completes it plants a remnant, so the
// layer's next block starts as the resume of a halt that never
// happened — a broken preemption path the halt/resume pairing family
// must catch.
type ghostResume struct {
	NopHooks
	planted bool
}

func (*ghostResume) Name() string { return "ghost-resume" }

func (g *ghostResume) PickMB(v *View) (MBRef, bool) {
	for _, m := range v.MBCandidates(nil) {
		if v.IsMBIssuable(m) {
			return m, true
		}
	}
	return MBRef{}, false
}

func (g *ghostResume) PickCB(v *View) (CBRef, bool) {
	cbs := v.ReadyCBs(nil)
	if len(cbs) == 0 {
		return CBRef{}, false
	}
	return cbs[0], true
}

func (g *ghostResume) OnCBDone(v *View, r CBRef) {
	// The sabotage: plant a remnant for the layer's next sub-layer
	// without any halt having occurred.
	if !g.planted && r.Iter+1 < v.nets[r.Net].cn.Layers[r.Layer].Iters {
		v.nets[r.Net].remnant[r.Layer] = 17
		g.planted = true
	}
}

func TestInvariantCatchesResumeWithoutHalt(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 50, iters: 3, blocks: 1})
	_, err := Run(cfg, []*compiler.CompiledNetwork{cn}, &ghostResume{}, Options{CheckInvariants: true})
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("err = %v, want ErrInvariant (resume without halt)", err)
	}
}

// doubleResumer splits once legitimately, lets the resume complete,
// then replays the consumed remainder so a second, unearned resume of
// the same halt is attempted on the layer's next block.
type doubleResumer struct {
	NopHooks
	split    bool
	saved    arch.Cycles
	replayed bool
}

func (*doubleResumer) Name() string { return "double-resumer" }

func (d *doubleResumer) PickMB(v *View) (MBRef, bool) {
	for _, m := range v.MBCandidates(nil) {
		if v.IsMBIssuable(m) {
			return m, true
		}
	}
	return MBRef{}, false
}

func (d *doubleResumer) PickCB(v *View) (CBRef, bool) {
	cbs := v.ReadyCBs(nil)
	if len(cbs) == 0 {
		return CBRef{}, false
	}
	return cbs[0], true
}

func (d *doubleResumer) OnMBDone(v *View, r MBRef) {
	if !d.split && v.RequestSplit() {
		d.split = true
	}
}

func (d *doubleResumer) OnCBSplit(v *View, r CBRef, remaining arch.Cycles) {
	d.saved = remaining
}

func (d *doubleResumer) OnCBDone(v *View, r CBRef) {
	// The sabotage: resurrect the already-consumed halt remainder so
	// the next block resumes a halt that was already resumed.
	if d.saved > 0 && !d.replayed && r.Iter+1 < v.nets[r.Net].cn.Layers[r.Layer].Iters {
		v.nets[r.Net].remnant[r.Layer] = d.saved
		d.replayed = true
	}
}

func TestInvariantCatchesDoubleResume(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 5, cb: 50, iters: 3, blocks: 1})
	_, err := Run(cfg, []*compiler.CompiledNetwork{cn}, &doubleResumer{}, Options{CheckInvariants: true})
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("err = %v, want ErrInvariant (double resume)", err)
	}
}

// leakyConsumer completes compute blocks but leaves one SRAM block
// counted as in use each time — emulating an occupancy leak the
// checker must notice when the engine's counter disagrees with the
// block table it drives from the event stream.
type leakyConsumer struct{ spoof spoofResidency }

func (leakyConsumer) Name() string { return "leaky-consumer" }

func (l leakyConsumer) PickMB(v *View) (MBRef, bool)      { return l.spoof.PickMB(v) }
func (l leakyConsumer) PickCB(v *View) (CBRef, bool)      { return l.spoof.PickCB(v) }
func (leakyConsumer) OnMBDone(*View, MBRef)               {}
func (leakyConsumer) OnCBStart(*View, CBRef)              {}
func (leakyConsumer) OnCBSplit(*View, CBRef, arch.Cycles) {}

func (leakyConsumer) OnCBDone(v *View, r CBRef) {
	// The sabotage: take back one of the blocks the engine just freed.
	v.used++
}

func TestInvariantCatchesSRAMLeak(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 5, iters: 3, blocks: 1})
	_, err := Run(cfg, []*compiler.CompiledNetwork{cn}, leakyConsumer{}, Options{CheckInvariants: true})
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("err = %v, want ErrInvariant (engine occupancy disagrees with the block table)", err)
	}
}

// TestInvariantCatchesBlockInIdleNetChain plants a weight block in the
// chain of a net that holds none (it has not even arrived), keeping
// the engine's occupancy counter in step so only the block table can
// notice. checkSRAM hands sram.Check the chains of the nets holding
// blocks only, so the planted block lies in no chain it sees and must
// be reported as leaked.
func TestInvariantCatchesBlockInIdleNetChain(t *testing.T) {
	cfg := testConfig()
	nets := []*compiler.CompiledNetwork{
		chainNet("a", cfg, layerSpec{mb: 10, cb: 20, iters: 6, blocks: 1}),
		chainNet("b", cfg, layerSpec{mb: 10, cb: 5, iters: 2, blocks: 1}),
	}
	e, err := NewEngine(cfg, nets, serial{}, Options{CheckInvariants: true, Arrivals: []arch.Cycles{0, 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepUntil(30); err != nil {
		t.Fatal(err)
	}
	c := e.chk
	if c.nets[1].outstanding != 0 || len(c.holding) != 1 {
		t.Fatalf("probe point: net 1 outstanding %d, holding %v; want net 0 alone holding", c.nets[1].outstanding, c.holding)
	}
	if err := c.buf.Allocate(&c.nets[1].layers[0].chain, 1); err != nil {
		t.Fatal(err)
	}
	e.v.used++
	_, err = e.Run()
	if !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("err = %v, want ErrInvariant reporting the planted block as leaked", err)
	}
}

// TestCheckerUnits exercises checker transitions the engine cannot
// currently produce, so regressions in future engine refactors are
// still caught.
func TestCheckerUnits(t *testing.T) {
	cfg := testConfig()
	cn := chainNet("n", cfg, layerSpec{mb: 10, cb: 5, iters: 2, blocks: 1})
	mkChecker := func() *checker {
		v := &View{cfg: cfg, total: cfg.WeightBlocks()}
		v.nets = append(v.nets, newNetState(cn))
		c, err := newChecker(v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("time-backwards", func(t *testing.T) {
		c := mkChecker()
		if err := c.advance(10); err != nil {
			t.Fatal(err)
		}
		if err := c.advance(5); !errors.Is(err, ErrInvariant) {
			t.Errorf("err = %v, want ErrInvariant", err)
		}
	})

	t.Run("two-MBs-at-once", func(t *testing.T) {
		c := mkChecker()
		if err := c.mbIssue(MBRef{}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.mbIssue(MBRef{Iter: 1}, 1); !errors.Is(err, ErrInvariant) {
			t.Errorf("err = %v, want ErrInvariant", err)
		}
	})

	t.Run("two-CBs-at-once", func(t *testing.T) {
		c := mkChecker()
		c.hostIn(0)
		if err := c.mbIssue(MBRef{}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.mbDone(MBRef{}, 0, 10); err != nil {
			t.Fatal(err)
		}
		if err := c.cbStart(CBRef{}, 5); err != nil {
			t.Fatal(err)
		}
		if err := c.cbStart(CBRef{}, 5); !errors.Is(err, ErrInvariant) {
			t.Errorf("err = %v, want ErrInvariant", err)
		}
	})

	t.Run("overlapping-fetch-intervals", func(t *testing.T) {
		c := mkChecker()
		if err := c.mbIssue(MBRef{}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.mbDone(MBRef{}, 0, 10); err != nil {
			t.Fatal(err)
		}
		if err := c.mbIssue(MBRef{Iter: 1}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.mbDone(MBRef{Iter: 1}, 8, 18); !errors.Is(err, ErrInvariant) {
			t.Errorf("err = %v, want ErrInvariant", err)
		}
	})

	t.Run("SRAM-over-capacity", func(t *testing.T) {
		c := mkChecker()
		if err := c.mbIssue(MBRef{}, cfg.WeightBlocks()+1); !errors.Is(err, ErrInvariant) {
			t.Errorf("err = %v, want ErrInvariant", err)
		}
	})

	t.Run("SRAM-chain-length", func(t *testing.T) {
		// A completion that releases fewer blocks than its layer's
		// memory block holds leaves a chain longer than (issued - done)
		// x MBBlocks.
		c := mkChecker()
		c.hostIn(0)
		if err := c.mbIssue(MBRef{}, 2); err != nil {
			t.Fatal(err)
		}
		if err := c.mbDone(MBRef{}, 0, 10); err != nil {
			t.Fatal(err)
		}
		if err := c.cbStart(CBRef{}, 5); err != nil {
			t.Fatal(err)
		}
		err := c.cbDone(CBRef{}, 10, 15, 1)
		if !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "chain holds") {
			t.Errorf("err = %v, want the chain-length check to fire", err)
		}
	})

	t.Run("CB-before-host-input", func(t *testing.T) {
		c := mkChecker()
		if err := c.mbIssue(MBRef{}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.mbDone(MBRef{}, 0, 10); err != nil {
			t.Fatal(err)
		}
		if err := c.cbStart(CBRef{}, 5); !errors.Is(err, ErrInvariant) {
			t.Errorf("err = %v, want ErrInvariant", err)
		}
	})

	// prime fetches the first sub-layer so a CB may start (invariant 7
	// subtests below share it).
	prime := func(t *testing.T, c *checker) {
		t.Helper()
		c.hostIn(0)
		if err := c.mbIssue(MBRef{}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.mbDone(MBRef{}, 0, 10); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("resume-without-halt", func(t *testing.T) {
		c := mkChecker()
		prime(t, c)
		// A short start with no outstanding halt is a fabricated resume.
		err := c.cbStart(CBRef{}, 3)
		if !errors.Is(err, ErrInvariant) {
			t.Fatalf("err = %v, want ErrInvariant", err)
		}
		if !strings.Contains(err.Error(), "resume without halt") {
			t.Errorf("err = %v, want the halt/resume pairing family to fire", err)
		}
	})

	t.Run("wrong-resume-remainder", func(t *testing.T) {
		c := mkChecker()
		prime(t, c)
		if err := c.cbStart(CBRef{}, 5); err != nil {
			t.Fatal(err)
		}
		if err := c.cbSplit(CBRef{}, 0, 2, 3); err != nil {
			t.Fatal(err)
		}
		// The resume must carry exactly remainder + refill.
		err := c.cbStart(CBRef{}, 3+c.fill+1)
		if !errors.Is(err, ErrInvariant) {
			t.Fatalf("err = %v, want ErrInvariant", err)
		}
		if !strings.Contains(err.Error(), "want halted remainder") {
			t.Errorf("err = %v, want the halt/resume pairing family to fire", err)
		}
	})

	t.Run("double-resume", func(t *testing.T) {
		c := mkChecker()
		prime(t, c)
		if err := c.cbStart(CBRef{}, 5); err != nil {
			t.Fatal(err)
		}
		if err := c.cbSplit(CBRef{}, 0, 1, 4); err != nil {
			t.Fatal(err)
		}
		// One legitimate resume consumes the halt...
		if err := c.cbStart(CBRef{}, 4+c.fill); err != nil {
			t.Fatalf("legitimate resume rejected: %v", err)
		}
		if err := c.cbDone(CBRef{}, 1, 1+4+c.fill, 1); err != nil {
			t.Fatal(err)
		}
		// ...so a second resume-shaped start on the next sub-layer has
		// no halt left to pair with.
		if err := c.mbIssue(MBRef{Iter: 1}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.mbDone(MBRef{Iter: 1}, 20, 30); err != nil {
			t.Fatal(err)
		}
		err := c.cbStart(CBRef{Iter: 1}, 4+c.fill)
		if !errors.Is(err, ErrInvariant) {
			t.Fatalf("err = %v, want ErrInvariant", err)
		}
		if !strings.Contains(err.Error(), "resume without halt") {
			t.Errorf("err = %v, want the halt/resume pairing family to fire", err)
		}
	})
}
