package sim

import (
	"errors"
	"fmt"

	"aimt/internal/arch"
	"aimt/internal/sram"
)

// ErrInvariant wraps every machine-model invariant violation reported
// by the opt-in checker (Options.CheckInvariants), so callers can
// errors.Is for it.
var ErrInvariant = errors.New("sim: machine invariant violated")

// checker validates the machine-model invariants at every engine
// event. It keeps its own shadow copy of the machine state — derived
// only from the event stream, never read back from the engine's
// bookkeeping — so that a scheduler (or a future engine refactor) that
// corrupts engine state is caught the moment the corruption becomes
// observable:
//
//  1. the HBM channel and the PE complex each execute one block at a
//     time (occupancy intervals never overlap);
//  2. weight-SRAM occupancy never exceeds capacity: the checker drives
//     the paper's block table (§IV-A3: free list plus per-layer
//     w_head/w_tail chains, sram.Buffer) from MB issues and CB
//     completions, and the table must stay consistent, each layer's
//     chain must hold exactly (MBs issued - CBs done) x MBBlocks
//     blocks, and the engine's occupancy counter must equal the
//     table's;
//  3. no compute block starts before all of its memory blocks complete
//     and before every predecessor layer's compute blocks complete;
//  4. event time is monotonically non-decreasing;
//  5. split/resume conserves compute-block work: the segments of a
//     halted block sum to its full cycles plus one refill penalty per
//     resume;
//  6. the incrementally maintained candidate frontiers agree with a
//     brute-force rescan: MBCandidates, ReadyCBs, SelectableCBs and
//     AvailableCBCycles equal the reference full-scan results, and
//     the CB-frontier net index lists exactly the active nets with a
//     non-empty CB frontier, after every state transition (see
//     frontier.go);
//  7. halts and resumes pair up: a compute block that starts with less
//     than its full work must be the resume of exactly the outstanding
//     halted remainder (plus the refill penalty), and each halt is
//     resumed at most once — a stray or double-inflated remnant
//     (resume without halt, double resume) fires here, at the start,
//     rather than surfacing later as family 5's conservation residue.
type checker struct {
	v    *View
	fill arch.Cycles

	now arch.Cycles

	// Engine occupancy shadows: whether a block is in flight and when
	// the last completed interval ended.
	memInFlight bool
	peInFlight  bool
	memFree     arch.Cycles
	peFree      arch.Cycles

	// buf is the weight SRAM's block table, allocated at MB issue and
	// consumed at CB completion into the layers' chains. The engine
	// itself keeps only an occupancy count.
	buf sram.Buffer

	nets []netShadow

	// holding lists, ascending, the nets with an outstanding memory
	// block (issued, its compute block not yet complete): the only
	// nets whose chains can hold blocks, so checkSRAM walks just
	// these. A block left in any other net's chain is in no chain
	// checkSRAM hands the block table, which reports it as leaked.
	holding []int

	// layerSlab is the flat backing every netShadow's layers sub-slice
	// is carved from, so a pooled checker resets without reallocating.
	layerSlab []layerShadow

	mbCount, cbCount, splitCount int

	// Scratch buffers for the frontier-vs-scan comparison (invariant 6).
	mbGot, mbWant []MBRef
	cbGot, cbWant []CBRef

	// chainPtrs is checkSRAM's scratch list of the holding nets'
	// chains, handed to sram.Check.
	chainPtrs []*sram.Chain
}

// netShadow is the checker's independent progress record for one
// network instance.
type netShadow struct {
	hostInDone bool
	layers     []layerShadow

	// outstanding counts the net's memory blocks issued whose compute
	// blocks have not completed; the net is in holding while it is
	// positive.
	outstanding int
}

// layerShadow shadows one layer's sub-layer progress.
type layerShadow struct {
	mbIssued int
	mbDone   int
	cbDone   int

	// executed accumulates the PE time spent on the layer's current
	// (possibly split) compute block; resumes counts its halts.
	executed arch.Cycles
	resumes  int

	// halted and remaining track the outstanding halt (invariant 7): a
	// split sets them, the matching resume clears them, and any start
	// whose work disagrees with them is a broken halt/resume pairing.
	halted    bool
	remaining arch.Cycles

	// chain is the layer's resident weight blocks in the block table.
	chain sram.Chain
}

func newChecker(v *View) (*checker, error) {
	c := &checker{}
	if err := c.reset(v); err != nil {
		return nil, err
	}
	return c, nil
}

// reset rebinds the checker to a fresh run over v, reusing its block
// table, slab, scratch and chain-pointer storage from the previous
// run. It fails when the configuration's weight SRAM holds no block.
func (c *checker) reset(v *View) error {
	totalLayers := 0
	for _, s := range v.nets {
		totalLayers += len(s.cn.Layers)
	}
	*c = checker{
		v:         v,
		fill:      v.cfg.FillLatency,
		buf:       c.buf,
		nets:      c.nets[:0],
		holding:   c.holding[:0],
		layerSlab: c.layerSlab[:0],
		mbGot:     c.mbGot[:0], mbWant: c.mbWant[:0],
		cbGot: c.cbGot[:0], cbWant: c.cbWant[:0],
		chainPtrs: c.chainPtrs[:0],
	}
	if cap(c.nets) < len(v.nets) {
		c.nets = make([]netShadow, 0, len(v.nets))
	}
	if cap(c.layerSlab) < totalLayers {
		c.layerSlab = make([]layerShadow, 0, totalLayers)
	}
	slab := c.layerSlab[:totalLayers]
	clear(slab)
	off := 0
	for _, s := range v.nets {
		n := len(s.cn.Layers)
		c.nets = append(c.nets, netShadow{layers: slab[off : off+n : off+n]})
		off += n
	}
	c.layerSlab = slab
	return c.buf.Reset(v.cfg.WeightBlocks())
}

func (c *checker) violate(format string, args ...any) error {
	return fmt.Errorf("%w at cycle %d: %s", ErrInvariant, c.now, fmt.Sprintf(format, args...))
}

// advance checks invariant 4: simulation time never moves backwards.
func (c *checker) advance(t arch.Cycles) error {
	if t < c.now {
		return c.violate("time moved backwards to %d", t)
	}
	c.now = t
	return nil
}

// hostIn records that a network's input features arrived.
func (c *checker) hostIn(net int) {
	c.nets[net].hostInDone = true
}

// mbIssue checks invariants 1 and 2 at memory-block issue: the channel
// must be free, the MB must be the layer's next, and its blocks must
// fit the block table's free list.
func (c *checker) mbIssue(r MBRef, blocks int) error {
	if c.memInFlight {
		return c.violate("MB %+v issued while the HBM channel executes another block", r)
	}
	sh := &c.nets[r.Net].layers[r.Layer]
	if r.Iter != sh.mbIssued {
		return c.violate("MB %+v issued out of order (next iter %d)", r, sh.mbIssued)
	}
	if r.Iter >= c.v.nets[r.Net].cn.Layers[r.Layer].Iters {
		return c.violate("MB %+v beyond the layer's %d sub-layers", r, c.v.nets[r.Net].cn.Layers[r.Layer].Iters)
	}
	if err := c.buf.Allocate(&sh.chain, blocks); err != nil {
		return c.violate("SRAM occupancy %d + %d blocks exceeds capacity %d at MB %+v: %v",
			c.buf.UsedBlocks(), blocks, c.buf.NumBlocks(), r, err)
	}
	sh.mbIssued++
	ns := &c.nets[r.Net]
	ns.outstanding++
	if ns.outstanding == 1 {
		c.holding = frontAdd(c.holding, r.Net)
	}
	c.memInFlight = true
	return nil
}

// mbDone checks invariant 1 on the completed fetch interval.
func (c *checker) mbDone(r MBRef, start, end arch.Cycles) error {
	if !c.memInFlight {
		return c.violate("MB %+v completed but none was in flight", r)
	}
	c.memInFlight = false
	if end < start {
		return c.violate("MB %+v interval [%d,%d) runs backwards", r, start, end)
	}
	if start < c.memFree {
		return c.violate("MB %+v interval [%d,%d) overlaps the previous fetch ending at %d", r, start, end, c.memFree)
	}
	c.memFree = end
	sh := &c.nets[r.Net].layers[r.Layer]
	sh.mbDone++
	if sh.mbDone > sh.mbIssued {
		return c.violate("MB %+v completed more times than issued (%d > %d)", r, sh.mbDone, sh.mbIssued)
	}
	c.mbCount++
	return nil
}

// cbStart checks invariants 1 and 3 at compute-block start: the PE
// complex must be free, the block's weights must have been fetched
// (per the checker's own MB completion count), and every predecessor
// layer must have finished computing.
func (c *checker) cbStart(r CBRef, work arch.Cycles) error {
	if c.peInFlight {
		return c.violate("CB %+v started while the PE complex executes another block", r)
	}
	if work <= 0 {
		return c.violate("CB %+v started with non-positive work %d", r, work)
	}
	ns := &c.nets[r.Net]
	sh := &ns.layers[r.Layer]
	if r.Iter != sh.cbDone {
		return c.violate("CB %+v started out of order (next iter %d)", r, sh.cbDone)
	}
	if r.Iter >= sh.mbDone {
		return c.violate("CB %+v started before its memory block completed (%d fetched)", r, sh.mbDone)
	}
	l := &c.v.nets[r.Net].cn.Layers[r.Layer]
	if len(l.Deps) == 0 && !ns.hostInDone {
		return c.violate("CB %+v started before the network's host input arrived", r)
	}
	for _, d := range l.Deps {
		if ns.layers[d].cbDone < c.v.nets[r.Net].cn.Layers[d].Iters {
			return c.violate("CB %+v started before predecessor layer %d finished (%d/%d CBs)",
				r, d, ns.layers[d].cbDone, c.v.nets[r.Net].cn.Layers[d].Iters)
		}
	}
	if sh.halted {
		if work != sh.remaining+c.fill {
			return c.violate("CB %+v resumed with %d cycles, want halted remainder %d + refill %d",
				r, work, sh.remaining, c.fill)
		}
		sh.halted, sh.remaining = false, 0
	} else if work != l.CBCycles {
		return c.violate("CB %+v started with %d cycles but no halt is outstanding (full block is %d): resume without halt",
			r, work, l.CBCycles)
	}
	c.peInFlight = true
	return nil
}

// cbDone checks invariants 1, 2 and 5 at compute-block completion.
func (c *checker) cbDone(r CBRef, start, end arch.Cycles, blocks int) error {
	if !c.peInFlight {
		return c.violate("CB %+v completed but none was executing", r)
	}
	c.peInFlight = false
	if end < start {
		return c.violate("CB %+v interval [%d,%d) runs backwards", r, start, end)
	}
	if start < c.peFree {
		return c.violate("CB %+v interval [%d,%d) overlaps the previous block ending at %d", r, start, end, c.peFree)
	}
	c.peFree = end

	sh := &c.nets[r.Net].layers[r.Layer]
	sh.executed += end - start
	want := c.v.nets[r.Net].cn.Layers[r.Layer].CBCycles + arch.Cycles(sh.resumes)*c.fill
	if sh.executed != want {
		return c.violate("CB %+v executed %d cycles over %d resume(s), want %d (split/resume lost work)",
			r, sh.executed, sh.resumes, want)
	}
	sh.executed, sh.resumes = 0, 0
	sh.cbDone++
	if sh.cbDone > sh.mbDone {
		return c.violate("CB %+v completed before its memory block (%d fetched)", r, sh.mbDone)
	}

	if err := c.buf.Consume(&sh.chain, blocks); err != nil {
		return c.violate("CB %+v freed more SRAM blocks than were allocated: %v", r, err)
	}
	// The net leaves holding only after this check, so the chains of
	// a net releasing its last memory block are walked once more and
	// must be empty.
	if err := c.checkSRAM(); err != nil {
		return err
	}
	ns := &c.nets[r.Net]
	ns.outstanding--
	if ns.outstanding == 0 {
		c.holding = frontRemove(c.holding, r.Net)
	}
	c.cbCount++
	return nil
}

// cbSplit checks invariants 1 and 5 when the engine halts a compute
// block: the executed and remaining portions must add up to the work
// the block was assigned.
func (c *checker) cbSplit(r CBRef, start, end, remaining arch.Cycles) error {
	if !c.peInFlight {
		return c.violate("CB %+v split but none was executing", r)
	}
	c.peInFlight = false
	if end <= start {
		return c.violate("CB %+v split with empty interval [%d,%d)", r, start, end)
	}
	if start < c.peFree {
		return c.violate("CB %+v split interval [%d,%d) overlaps the previous block ending at %d", r, start, end, c.peFree)
	}
	if remaining <= 0 {
		return c.violate("CB %+v split with nothing remaining", r)
	}
	c.peFree = end

	sh := &c.nets[r.Net].layers[r.Layer]
	sh.executed += end - start
	sh.resumes++
	want := c.v.nets[r.Net].cn.Layers[r.Layer].CBCycles + arch.Cycles(sh.resumes-1)*c.fill
	if sh.executed+remaining != want {
		return c.violate("CB %+v split: executed %d + remaining %d != %d (work not conserved)",
			r, sh.executed, remaining, want)
	}
	sh.halted, sh.remaining = true, remaining
	c.splitCount++
	return nil
}

// frontiers checks invariant 6: the candidate sets the schedulers see
// through the incrementally maintained frontiers must be identical —
// element for element, in order — to a brute-force rescan of every
// layer, and the incremental AVL_CB counter must equal the rescanned
// total. The engine calls this after every state transition that can
// move candidacy (MB issue, MB/CB completion, CB start, CB split,
// host-input completion).
func (c *checker) frontiers() error {
	v := c.v
	c.mbGot = v.MBCandidates(c.mbGot[:0])
	c.mbWant = v.scanMBCandidates(c.mbWant[:0])
	if !mbRefsEqual(c.mbGot, c.mbWant) {
		return c.violate("MB frontier %v diverged from full scan %v", c.mbGot, c.mbWant)
	}
	// The CB-side queries read through the net index, so check it
	// first: a corrupt index is then reported as itself.
	if !v.scanCBNets() {
		return c.violate("CB-frontier net index %v diverged from the active nets' frontiers", v.cbNets)
	}
	c.cbGot = v.ReadyCBs(c.cbGot[:0])
	c.cbWant = v.scanReadyCBs(c.cbWant[:0])
	if !cbRefsEqual(c.cbGot, c.cbWant) {
		return c.violate("ready-CB frontier %v diverged from full scan %v", c.cbGot, c.cbWant)
	}
	c.cbGot = v.SelectableCBs(c.cbGot[:0])
	c.cbWant = v.scanSelectableCBs(c.cbWant[:0])
	if !cbRefsEqual(c.cbGot, c.cbWant) {
		return c.violate("selectable-CB frontier %v diverged from full scan %v", c.cbGot, c.cbWant)
	}
	if got, want := v.AvailableCBCycles(), v.scanAvailableCBCycles(); got != want {
		return c.violate("incremental AVL_CB %d diverged from full scan %d", got, want)
	}
	return nil
}

func mbRefsEqual(a, b []MBRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func cbRefsEqual(a, b []CBRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rebuildHolding recomputes each net's outstanding MB count and the
// holding list from the layer shadows, after a restore rewound them.
func (c *checker) rebuildHolding() {
	c.holding = c.holding[:0]
	for ni := range c.nets {
		ns := &c.nets[ni]
		ns.outstanding = 0
		for li := range ns.layers {
			ns.outstanding += ns.layers[li].mbIssued - ns.layers[li].cbDone
		}
		if ns.outstanding > 0 {
			c.holding = append(c.holding, ni)
		}
	}
}

// checkSRAM verifies invariant 2's structural half: the block table's
// free list and the holding nets' chains partition the buffer (so a
// block in any other chain is reported as leaked), each holding net's
// layer chains hold exactly its fetched-but-unconsumed memory blocks
// (sized from the compiled table, not the engine's hot rows), and the
// engine's occupancy counter equals the table's. A net outside
// holding has every layer at mbIssued == cbDone, so its chains must
// be empty — which the partition check already proves. The cost is
// the block count plus the holding nets' layers, not every layer of
// every instance.
func (c *checker) checkSRAM() error {
	c.chainPtrs = c.chainPtrs[:0]
	for _, ni := range c.holding {
		layers := c.v.nets[ni].cn.Layers
		for li := range c.nets[ni].layers {
			sh := &c.nets[ni].layers[li]
			if want := (sh.mbIssued - sh.cbDone) * layers[li].MBBlocks; sh.chain.Len() != want {
				return c.violate("net %d layer %d chain holds %d SRAM blocks, want (%d issued - %d done) x %d",
					ni, li, sh.chain.Len(), sh.mbIssued, sh.cbDone, layers[li].MBBlocks)
			}
			c.chainPtrs = append(c.chainPtrs, &sh.chain)
		}
	}
	if err := c.buf.Check(c.chainPtrs); err != nil {
		return c.violate("%v", err)
	}
	if got, want := c.v.used, c.buf.UsedBlocks(); got != want {
		return c.violate("engine SRAM occupancy %d blocks disagrees with the block table's %d", got, want)
	}
	return nil
}

// finish runs the end-of-simulation checks: every sub-layer fetched
// and computed exactly once, all SRAM returned, and the engine's
// aggregate counters agreeing with the event stream.
func (c *checker) finish(res *Result) error {
	if c.memInFlight || c.peInFlight {
		return c.violate("run finished with a block still in flight")
	}
	if used := c.buf.UsedBlocks(); used != 0 {
		return c.violate("run finished with %d SRAM blocks still allocated", used)
	}
	if c.v.used != 0 {
		return c.violate("engine reports %d SRAM blocks in use after completion", c.v.used)
	}
	for ni := range c.nets {
		for li, sh := range c.nets[ni].layers {
			iters := c.v.nets[ni].cn.Layers[li].Iters
			if sh.mbDone != iters || sh.cbDone != iters {
				return c.violate("net %d layer %d finished %d/%d MBs and %d/%d CBs",
					ni, li, sh.mbDone, iters, sh.cbDone, iters)
			}
			if sh.executed != 0 || sh.resumes != 0 {
				return c.violate("net %d layer %d left a half-executed compute block", ni, li)
			}
		}
	}
	if res.MBCount != c.mbCount || res.CBCount != c.cbCount || res.Splits != c.splitCount {
		return c.violate("result counts MB=%d CB=%d splits=%d disagree with the event stream's %d/%d/%d",
			res.MBCount, res.CBCount, res.Splits, c.mbCount, c.cbCount, c.splitCount)
	}
	return nil
}
