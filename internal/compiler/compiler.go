// Package compiler lowers a neural network onto the accelerator: it
// implements the paper's latency-estimation model (Algorithm 1) and
// emits the per-network sub-layer scheduling table the runtime
// scheduler consumes (paper §IV-A1).
//
// Each weight-carrying layer is divided into identical sub-layers —
// one per PE-array weight mapping. A sub-layer has a memory block
// (MB: fetch its weights from HBM into the weight SRAM) and a compute
// block (CB: stream inputs through the loaded weights). The compiler
// statically determines, per layer, the MB cycles, CB cycles, the
// number of sub-layers (#iters), the SRAM footprint of one MB, and the
// dependency indegrees used at runtime.
//
// Pooling, activation and normalization layers run on dedicated
// post-processing units and are fused into their producers: they
// contribute dependency edges but no MBs or CBs, so the scheduling
// table contains exactly the CONV/FC layers (as in the paper).
package compiler

import (
	"errors"
	"fmt"
	"sync"

	"aimt/internal/arch"
	"aimt/internal/nn"
)

// Task identifies one compiled weight layer of one network instance.
type Task struct {
	// Layer is the index into CompiledNetwork.Layers.
	Layer int
	// Iter is the sub-layer index within the layer, 0-based.
	Iter int
}

// CompiledLayer is one row of the sub-layer scheduling table.
type CompiledLayer struct {
	// Name is the source layer name, e.g. "conv3_2".
	Name string

	// Type is the source layer type (Conv, DWConv, FC or Attn).
	Type nn.LayerType

	// MBCycles is the HBM occupancy of one memory block.
	MBCycles arch.Cycles

	// CBCycles is the PE-array occupancy of one compute block.
	CBCycles arch.Cycles

	// Iters is the number of identical sub-layers the layer divides
	// into (the paper's #iters).
	Iters int

	// MBBytes is the weight-SRAM footprint of one memory block.
	MBBytes arch.Bytes

	// MBBlocks is MBBytes expressed in allocator blocks (one block per
	// PE array's weights): 1 for CONV, NumArrays for FC.
	MBBlocks int

	// Deps lists predecessor compiled-layer indices: this layer's
	// first sub-layer may not start (MB chain: fetch order; CB chain:
	// data dependency) until every predecessor's last sub-layer of the
	// same kind has finished.
	Deps []int

	// Posts lists successor compiled-layer indices (the paper's
	// post-layer ids).
	Posts []int
}

// TotalMBCycles returns MBCycles * Iters.
func (l CompiledLayer) TotalMBCycles() arch.Cycles {
	return l.MBCycles * arch.Cycles(l.Iters)
}

// TotalCBCycles returns CBCycles * Iters.
func (l CompiledLayer) TotalCBCycles() arch.Cycles {
	return l.CBCycles * arch.Cycles(l.Iters)
}

// TotalWeightBytes returns the layer's full weight footprint.
func (l CompiledLayer) TotalWeightBytes() arch.Bytes {
	return l.MBBytes * arch.Bytes(l.Iters)
}

// MemoryIntensive reports whether the layer's memory blocks are longer
// than its compute blocks — the property early MB eviction keys on.
func (l CompiledLayer) MemoryIntensive() bool {
	return l.MBCycles > l.CBCycles
}

// CompiledNetwork is the sub-layer scheduling table for one network at
// one batch size, plus the host-transfer byte counts used by the
// simulator's PCIe stage.
type CompiledNetwork struct {
	// Name is the source network name.
	Name string

	// Batch is the batch size the table was compiled for.
	Batch int

	// Layers holds the weight layers in topological order.
	Layers []CompiledLayer

	// HostInBytes is the input-feature traffic per inference batch.
	HostInBytes arch.Bytes

	// HostOutBytes is the output-feature traffic per inference batch.
	HostOutBytes arch.Bytes

	// labels holds each layer's trace labels, resolved on the first
	// Label call so untraced runs never build them.
	labelsOnce sync.Once
	labels     [][numLabels]string
}

// LabelKind selects one of a layer's trace labels.
type LabelKind uint8

// Trace label kinds: a layer's memory block, compute block and
// split-halted compute block.
const (
	LabelMB      LabelKind = iota // "MB:" + layer name
	LabelCB                       // "CB:" + layer name
	LabelCBSplit                  // "CB(split):" + layer name
	numLabels
)

var labelPrefix = [numLabels]string{"MB:", "CB:", "CB(split):"}

// Label returns the trace label of kind k for layer i: its prefix
// and the layer name. The first call resolves every layer's labels at
// once, so later calls never allocate; the table must not change
// shape after that.
func (cn *CompiledNetwork) Label(k LabelKind, i int) string {
	cn.labelsOnce.Do(cn.resolveLabels)
	return cn.labels[i][k]
}

// resolveLabels fills the per-layer label table from the layer names.
func (cn *CompiledNetwork) resolveLabels() {
	cn.labels = make([][numLabels]string, len(cn.Layers))
	for i := range cn.Layers {
		for k, p := range labelPrefix {
			cn.labels[i][k] = p + cn.Layers[i].Name
		}
	}
}

// Errors returned by Compile.
var (
	ErrBadBatch = errors.New("compiler: batch size must be positive")
)

// Compile lowers net onto cfg at the given batch size. cfg must have
// been validated.
func Compile(net *nn.Network, cfg arch.Config, batch int) (*CompiledNetwork, error) {
	if batch <= 0 {
		return nil, ErrBadBatch
	}
	if err := cfg.CheckDivisors(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}

	// Map original layer indices to compiled (weight-layer) indices,
	// fusing non-weight layers: a weight layer depends on the weight
	// layers reachable backwards through fused layers.
	weightIdx := make([]int, len(net.Layers)) // -1 for fused layers
	for i := range weightIdx {
		weightIdx[i] = -1
	}
	// effDeps[i] = set of compiled indices feeding original layer i.
	effDeps := make([][]int, len(net.Layers))

	cn := &CompiledNetwork{
		Name:         net.Name,
		Batch:        batch,
		HostInBytes:  arch.Bytes(net.InputBytes(cfg.WeightBytes) * int64(batch)),
		HostOutBytes: arch.Bytes(net.OutputBytes(cfg.WeightBytes) * int64(batch)),
	}

	for i, l := range net.Layers {
		var deps []int
		seen := map[int]bool{}
		for _, in := range l.Inputs {
			if w := weightIdx[in]; w >= 0 {
				if !seen[w] {
					seen[w] = true
					deps = append(deps, w)
				}
			} else {
				for _, d := range effDeps[in] {
					if !seen[d] {
						seen[d] = true
						deps = append(deps, d)
					}
				}
			}
		}
		if !l.Type.HasWeights() {
			effDeps[i] = deps
			continue
		}
		cl, err := estimate(l, cfg, batch)
		if err != nil {
			return nil, fmt.Errorf("compiler: %s/%s: %w", net.Name, l.Name, err)
		}
		cl.Deps = deps
		weightIdx[i] = len(cn.Layers)
		effDeps[i] = []int{weightIdx[i]}
		cn.Layers = append(cn.Layers, cl)
	}
	for i, l := range cn.Layers {
		for _, d := range l.Deps {
			cn.Layers[d].Posts = append(cn.Layers[d].Posts, i)
		}
	}
	if len(cn.Layers) == 0 {
		return nil, fmt.Errorf("compiler: %s has no weight layers", net.Name)
	}
	return cn, nil
}

// estimate implements the paper's Algorithm 1, extended with the
// depthwise-convolution mapping described in DESIGN.md.
func estimate(l nn.Layer, cfg arch.Config, batch int) (CompiledLayer, error) {
	read := cfg.ReadCyclesPerArray()
	fill := cfg.FillLatency
	dim := int64(cfg.PEDim)
	arrays := int64(cfg.NumArrays)

	cl := CompiledLayer{Name: l.Name, Type: l.Type}
	switch l.Type {
	case nn.Conv, nn.DWConv:
		// All PE arrays share one weight mapping; input feature rows
		// are partitioned across arrays.
		ow, oh := int64(l.OutW()), int64(l.OutH())
		cl.MBCycles = read
		cl.CBCycles = arch.Cycles(ceil(ow*oh, arrays)*int64(batch)) + fill
		rows := int64(l.InC) * int64(l.Kernel) * int64(l.Kernel)
		if l.Type == nn.DWConv {
			// Each output channel sees only its own k*k inputs, so the
			// contraction depth per filter column is k*k.
			rows = int64(l.Kernel) * int64(l.Kernel)
		}
		cl.Iters = int(ceil(int64(l.OutC), dim) * ceil(rows, dim))
		cl.MBBlocks = 1
	case nn.FC:
		// Each PE array holds distinct filters; the batch streams
		// through all arrays.
		cl.MBCycles = read * arch.Cycles(arrays)
		cl.CBCycles = arch.Cycles(int64(batch)*int64(l.Reuse())) + fill
		cl.Iters = int(ceil(int64(l.OutC), dim*arrays) * ceil(int64(l.InC), dim))
		cl.MBBlocks = cfg.NumArrays
	case nn.Attn:
		// KV-cache-stationary, mapped like FC: each PE array holds a
		// distinct Ctx-tile of the cache (K for the score product, V for
		// the context product) and the Tokens query positions stream
		// through. A decode pass (Tokens = 1) pays the full cache fetch
		// for one token of compute — memory-bound; a prefill pass
		// (Tokens = SeqLen) amortizes the same fetch — compute-heavy.
		cl.MBCycles = read * arch.Cycles(arrays)
		cl.CBCycles = arch.Cycles(int64(batch)*int64(l.Tokens)) + fill
		cl.Iters = int(ceil(int64(l.Ctx), dim*arrays) * ceil(int64(l.InC), dim))
		cl.MBBlocks = cfg.NumArrays
	default:
		return cl, fmt.Errorf("layer type %v carries no weights", l.Type)
	}
	cl.MBBytes = cfg.BlockBytes() * arch.Bytes(cl.MBBlocks)
	if cl.Iters <= 0 {
		return cl, fmt.Errorf("computed %d sub-layers", cl.Iters)
	}
	return cl, nil
}

func ceil(a, b int64) int64 {
	if b <= 0 {
		panic("compiler: ceil by non-positive divisor")
	}
	return (a + b - 1) / b
}

// Stats aggregates a compiled network's totals.
type Stats struct {
	// SubLayers is the total number of sub-layers (Σ Iters).
	SubLayers int
	// MBCycles is the total HBM occupancy (Σ MBCycles·Iters).
	MBCycles arch.Cycles
	// CBCycles is the total PE occupancy (Σ CBCycles·Iters).
	CBCycles arch.Cycles
	// WeightBytes is the total weight traffic.
	WeightBytes arch.Bytes
}

// Stats computes aggregate totals over the network's layers.
func (cn *CompiledNetwork) Stats() Stats {
	var s Stats
	for i := range cn.Layers {
		l := &cn.Layers[i]
		s.SubLayers += l.Iters
		s.MBCycles += l.TotalMBCycles()
		s.CBCycles += l.TotalCBCycles()
		s.WeightBytes += l.TotalWeightBytes()
	}
	return s
}

// MemoryIntensive reports whether the network as a whole demands more
// HBM cycles than PE cycles — the paper's workload classification
// (GNMT and large-FC VGG16 vs the compute-bound CNNs).
func (cn *CompiledNetwork) MemoryIntensive() bool {
	s := cn.Stats()
	return s.MBCycles > s.CBCycles
}

// Validate checks internal consistency of a compiled table; the
// simulator calls it before running.
func (cn *CompiledNetwork) Validate() error {
	if len(cn.Layers) == 0 {
		return errors.New("compiler: empty compiled network")
	}
	if cn.Batch <= 0 {
		return ErrBadBatch
	}
	for i := range cn.Layers {
		l := &cn.Layers[i]
		if l.Iters <= 0 || l.MBCycles < 0 || l.CBCycles <= 0 || l.MBBlocks <= 0 {
			return fmt.Errorf("compiler: layer %d (%s) has invalid parameters %+v", i, l.Name, *l)
		}
		for _, d := range l.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("compiler: layer %d (%s) has non-topological dep %d", i, l.Name, d)
			}
		}
	}
	return nil
}
