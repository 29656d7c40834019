package sim

import "aimt/internal/arch"

// Candidate frontiers.
//
// Every scheduler decision needs the same three candidate sets —
// issuable memory blocks, ready compute blocks, selectable compute
// blocks — plus the AVL_CB total. Deriving them by scanning all layers
// of every active network makes each pick O(active nets × layers),
// and scheduleAll runs once per engine event, so long serving streams
// pay O(events × nets × layers) overall. But candidacy only changes
// at a handful of state transitions (MB issue, MB/CB completion, CB
// split, host-input completion), and each transition touches at most
// one layer plus its direct successors. The engine therefore keeps
// per-net frontiers — sorted layer lists holding exactly the layers
// the old scans would emit — and an incremental AVL_CB counter,
// turning the scans into iterations over the (small) ready sets and
// AvailableCBCycles into an O(1) read.
//
// Membership conditions (maintained, never rescanned):
//
//	mbFront: mbIndeg == 0 && mbIssued < Iters
//	cbFront: cbIndeg == 0 && mbDone  > cbDone
//	cbNets:  active nets with a non-empty cbFront
//
// ReadyCBs and SelectableCBs are both filters over cbFront: a cbFront
// layer is ready when nothing on it is claimed ahead of execution
// (cbSelected == cbDone), and contributes selectable iterations
// cbSelected..mbDone-1. Since cbDone <= cbSelected <= mbDone always
// holds, both sets are subsets of cbFront, so one frontier serves all
// three CB-side queries, and the View-level cbNets index lets them
// skip every net that holds no resident compute work. cbFront changes
// only through cbFrontAdd and cbFrontRemove, which keep cbNets in
// step.
//
// AI-MT's rotating picks need only the first candidate at or after a
// round-robin pointer (FirstReadyCB, FirstSelectableCB) or the MB
// candidates in rotation order (MBCandidatesFrom); those queries
// answer from the frontiers in one walk, without materializing and
// re-ranking a copy.
//
// The scan* functions below are the original full-scan
// implementations, kept as the reference the invariant checker (and
// the differential tests) compare the frontiers against at every
// engine event.

// frontAdd inserts layer li into the ascending frontier f. li must
// not already be present.
func frontAdd(f []int, li int) []int {
	i := len(f)
	f = append(f, 0)
	for i > 0 && f[i-1] > li {
		f[i] = f[i-1]
		i--
	}
	f[i] = li
	return f
}

// frontRemove deletes layer li from the frontier f.
func frontRemove(f []int, li int) []int {
	for i, l := range f {
		if l == li {
			return append(f[:i], f[i+1:]...)
		}
	}
	return f
}

// cbFrontAdd inserts layer li into net's CB frontier, entering the
// net into cbNets when its frontier was empty.
func (v *View) cbFrontAdd(net, li int) {
	s := v.nets[net]
	if len(s.cbFront) == 0 {
		v.cbNets = frontAdd(v.cbNets, net)
	}
	s.cbFront = frontAdd(s.cbFront, li)
}

// cbFrontRemove deletes layer li from net's CB frontier, dropping the
// net from cbNets when its frontier empties.
func (v *View) cbFrontRemove(net, li int) {
	s := v.nets[net]
	s.cbFront = frontRemove(s.cbFront, li)
	if len(s.cbFront) == 0 {
		v.cbNets = frontRemove(v.cbNets, net)
	}
}

// unlockCB accounts for layer li of net whose CB chain just became
// dependency-free: any already-resident compute blocks join the CB
// frontier and the available-compute counter. (A layer's weights may
// be fetched while its CB chain is still locked — MB and CB chains
// unlock independently.)
func (v *View) unlockCB(net, li int) {
	s := v.nets[net]
	row := &s.rows[li]
	n := row.mbDone - row.cbDone
	if n <= 0 {
		return
	}
	v.cbFrontAdd(net, li)
	cb := s.hot[li].cbCycles
	v.availCB += arch.Cycles(n) * cb
	if row.remnant > 0 {
		v.availCB -= cb - (row.remnant + v.cfg.FillLatency)
	}
}

// scanCBNets reports whether cbNets lists exactly the active nets
// whose CB frontier is non-empty, in ascending order — the reference
// rescan of the index.
func (v *View) scanCBNets() bool {
	i := 0
	for _, ni := range v.active {
		if len(v.nets[ni].cbFront) == 0 {
			continue
		}
		if i >= len(v.cbNets) || v.cbNets[i] != ni {
			return false
		}
		i++
	}
	return i == len(v.cbNets)
}

// scanMBCandidates is the reference full-scan implementation of
// MBCandidates, used by the invariant checker to validate the
// incrementally maintained MB frontier.
func (v *View) scanMBCandidates(out []MBRef) []MBRef {
	for _, ni := range v.active {
		s := v.nets[ni]
		for li := range s.cn.Layers {
			if row := &s.rows[li]; row.mbIndeg == 0 && row.mbIssued < s.cn.Layers[li].Iters {
				out = append(out, MBRef{Net: ni, Layer: li, Iter: row.mbIssued})
			}
		}
	}
	return out
}

// scanReadyCBs is the reference full-scan implementation of ReadyCBs.
func (v *View) scanReadyCBs(out []CBRef) []CBRef {
	for _, ni := range v.active {
		s := v.nets[ni]
		for li := range s.cn.Layers {
			r := CBRef{Net: ni, Layer: li, Iter: s.rows[li].cbDone}
			if s.rows[li].cbSelected == r.Iter && v.isCBExecutable(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// scanSelectableCBs is the reference full-scan implementation of
// SelectableCBs.
func (v *View) scanSelectableCBs(out []CBRef) []CBRef {
	for _, ni := range v.active {
		s := v.nets[ni]
		for li := range s.cn.Layers {
			row := &s.rows[li]
			if row.cbIndeg != 0 {
				continue
			}
			for it := row.cbSelected; it < row.mbDone; it++ {
				out = append(out, CBRef{Net: ni, Layer: li, Iter: it})
			}
		}
	}
	return out
}

// scanAvailableCBCycles is the reference full-scan implementation of
// AvailableCBCycles.
func (v *View) scanAvailableCBCycles() arch.Cycles {
	var sum arch.Cycles
	for _, ni := range v.active {
		s := v.nets[ni]
		for li := range s.cn.Layers {
			row := &s.rows[li]
			if row.cbIndeg != 0 {
				continue
			}
			n := row.mbDone - row.cbDone
			if n <= 0 {
				continue
			}
			cb := s.cn.Layers[li].CBCycles
			sum += arch.Cycles(n) * cb
			if row.remnant > 0 {
				// The layer's next CB is a halted remainder, shorter
				// than a full block.
				sum -= cb - (row.remnant + v.cfg.FillLatency)
			}
		}
	}
	return sum
}
