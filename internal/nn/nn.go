// Package nn models neural networks at the granularity the accelerator
// schedules them: a directed acyclic graph of layers, each with the
// shape information (channels, spatial extent, kernel, stride) needed
// by the compiler's latency model. Weight values are never represented
// — the simulator is shape-driven, exactly like the paper's.
//
// The package ships the model zoo used by the paper's evaluation
// (Table II): ResNet34, ResNet50, VGG16, MobileNetV1 and GNMT, plus a
// builder API for constructing custom networks.
package nn

import (
	"errors"
	"fmt"
)

// LayerType distinguishes the operations the accelerator executes.
type LayerType int

const (
	// Conv is a standard convolution executed on the PE arrays with a
	// broadcast weight mapping (all arrays share the filter set and
	// partition the input feature map).
	Conv LayerType = iota

	// DWConv is a depthwise convolution: each input channel is
	// convolved with a single k x k filter. MobileNet is built from
	// alternating DWConv and 1x1 Conv layers.
	DWConv

	// FC is a fully connected layer (matrix-vector/matrix product),
	// mapped with per-array distinct weights (the paper's FC mapping).
	FC

	// Pool is a pooling layer. It runs on the dedicated pooling unit
	// (paper Fig 2), carries no weights, and is fused into its producer
	// for scheduling: it contributes dependency edges only.
	Pool

	// Attn is one attention matmul against the KV cache: the score
	// product (Q x K^T) or the context product (softmax(scores) x V).
	// Its "weights" are the Ctx x InC cache tile streamed from HBM —
	// per-sequence state that, exactly like FC weights, must be fetched
	// before the compute block can run. Tokens is the number of query
	// positions this pass computes: the prompt length during prefill
	// (compute-heavy), one during autoregressive decode (memory-bound).
	Attn

	// Softmax is the attention-score normalization between the two
	// attention matmuls. Like Pool it runs on a dedicated vector unit,
	// carries no weights, and is fused into its producer: it contributes
	// dependency edges only.
	Softmax
)

// String implements fmt.Stringer.
func (t LayerType) String() string {
	switch t {
	case Conv:
		return "CONV"
	case DWConv:
		return "DWCONV"
	case FC:
		return "FC"
	case Pool:
		return "POOL"
	case Attn:
		return "ATTN"
	case Softmax:
		return "SOFTMAX"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// HasWeights reports whether layers of this type fetch weights from
// HBM and therefore produce memory blocks. Attn counts: its KV-cache
// tile plays the role of the stationary operand.
func (t LayerType) HasWeights() bool {
	return t == Conv || t == DWConv || t == FC || t == Attn
}

// Layer is one operation in a network. For Conv/DWConv layers the
// spatial fields are meaningful; FC layers use only InC and OutC
// (treated as ic x 1 x 1 inputs and oc filters, per the paper §II-A);
// Pool layers use Kernel/Stride for shape inference only.
type Layer struct {
	// Name identifies the layer in traces and reports, e.g. "conv3_2".
	Name string

	// Type selects the operation.
	Type LayerType

	// InC, InH, InW are the input feature dimensions (channels,
	// height, width). For FC, InH = InW = 1.
	InC, InH, InW int

	// OutC is the number of output channels (CONV filters or FC output
	// neurons). For Pool and DWConv it equals InC.
	OutC int

	// Kernel is the filter height/width (k in the paper). 1 for FC.
	Kernel int

	// Stride is the convolution or pooling stride. 1 for FC.
	Stride int

	// Pad is the symmetric zero padding applied to each spatial edge.
	Pad int

	// Repeat is the number of times the layer's weights are reused per
	// inference beyond the batch dimension — the timestep count for
	// recurrent layers (GNMT) and the token count for transformer
	// projections streaming a prefill through one weight fetch. Zero
	// means 1.
	Repeat int

	// Heads is the attention head count (Attn layers only). Heads
	// partition the hidden dimension, so the aggregate cache footprint
	// and MAC count are head-independent; the field is kept for
	// validation and reporting.
	Heads int

	// Ctx is the KV-cache length an Attn layer attends over: the prompt
	// length during prefill, the accumulated sequence length during
	// decode.
	Ctx int

	// Tokens is the number of query positions an Attn layer computes:
	// the prompt length for a prefill pass, 1 for one decode iteration.
	Tokens int

	// Inputs lists the indices of the layers whose outputs feed this
	// layer. An empty list marks a network input layer. Residual
	// connections appear as a second entry.
	Inputs []int
}

// OutH returns the output feature height implied by the layer shape.
func (l Layer) OutH() int { return convOut(l.InH, l.Kernel, l.Stride, l.Pad) }

// OutW returns the output feature width implied by the layer shape.
func (l Layer) OutW() int { return convOut(l.InW, l.Kernel, l.Stride, l.Pad) }

func convOut(in, k, stride, pad int) int {
	if in <= 0 {
		return 0
	}
	if k <= 0 {
		k = 1
	}
	if stride <= 0 {
		stride = 1
	}
	n := (in+2*pad-k)/stride + 1
	if n < 1 {
		n = 1
	}
	return n
}

// Reuse returns the per-inference weight-reuse multiplier beyond the
// batch dimension: max(1, Repeat).
func (l Layer) Reuse() int {
	if l.Repeat > 1 {
		return l.Repeat
	}
	return 1
}

// WeightCount returns the number of weight elements the layer loads
// from HBM (excluding biases, which the paper also ignores).
func (l Layer) WeightCount() int64 {
	switch l.Type {
	case Conv:
		return int64(l.InC) * int64(l.Kernel) * int64(l.Kernel) * int64(l.OutC)
	case DWConv:
		return int64(l.InC) * int64(l.Kernel) * int64(l.Kernel)
	case FC:
		return int64(l.InC) * int64(l.OutC)
	case Attn:
		// One half of the KV cache (K for the score matmul, V for the
		// context matmul): Ctx vectors of the hidden width.
		return int64(l.Ctx) * int64(l.InC)
	default:
		return 0
	}
}

// InputCount returns the number of input feature elements.
func (l Layer) InputCount() int64 {
	return int64(l.InC) * int64(l.InH) * int64(l.InW)
}

// OutputCount returns the number of output feature elements.
func (l Layer) OutputCount() int64 {
	return int64(l.OutC) * int64(l.OutH()) * int64(l.OutW())
}

// MACs returns the number of multiply-accumulate operations the layer
// performs for a single input (batch 1).
func (l Layer) MACs() int64 {
	switch l.Type {
	case Conv:
		return int64(l.OutH()) * int64(l.OutW()) * int64(l.OutC) *
			int64(l.InC) * int64(l.Kernel) * int64(l.Kernel)
	case DWConv:
		return int64(l.OutH()) * int64(l.OutW()) * int64(l.InC) *
			int64(l.Kernel) * int64(l.Kernel)
	case FC:
		return int64(l.InC) * int64(l.OutC) * int64(l.Reuse())
	case Attn:
		// Summed over heads the score (and context) product is
		// Tokens x Ctx x hidden MACs, head-count independent.
		return int64(l.Tokens) * int64(l.Ctx) * int64(l.InC)
	default:
		return 0
	}
}

// Network is a DAG of layers. Construct with NewBuilder (or a zoo
// function) and treat as immutable afterwards.
type Network struct {
	// Name identifies the network, e.g. "ResNet50".
	Name string

	// Layers holds the layers in topological order: every layer's
	// inputs have smaller indices.
	Layers []Layer
}

// Validation errors.
var (
	ErrEmptyNetwork = errors.New("nn: network has no layers")
	ErrBadTopology  = errors.New("nn: layer inputs must precede the layer (topological order)")
	ErrBadShape     = errors.New("nn: inconsistent layer shape")
)

// Validate checks topological ordering, shape consistency along every
// edge, and basic sanity of each layer's dimensions.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return ErrEmptyNetwork
	}
	for i := range n.Layers {
		l := &n.Layers[i]
		if l.InC <= 0 || l.OutC <= 0 || l.InH <= 0 || l.InW <= 0 {
			return fmt.Errorf("%w: layer %d (%s) has non-positive dims %+v", ErrBadShape, i, l.Name, *l)
		}
		if l.Type.HasWeights() && l.WeightCount() <= 0 {
			return fmt.Errorf("%w: layer %d (%s) has no weights", ErrBadShape, i, l.Name)
		}
		if l.Type == Attn && (l.Heads <= 0 || l.Ctx <= 0 || l.Tokens <= 0) {
			return fmt.Errorf("%w: layer %d (%s) needs positive Heads/Ctx/Tokens, got %d/%d/%d",
				ErrBadShape, i, l.Name, l.Heads, l.Ctx, l.Tokens)
		}
		for _, in := range l.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("%w: layer %d (%s) input %d", ErrBadTopology, i, l.Name, in)
			}
			p := &n.Layers[in]
			if l.Type == FC || l.Type == Attn {
				// FC layers flatten and may follow recurrent or concat
				// topologies (GNMT) whose reshaping the shape model does
				// not represent; attention reshapes the QKV projection
				// into per-head matrices. Edge agreement is not enforced
				// for either.
				continue
			}
			if p.OutC != l.InC {
				return fmt.Errorf("%w: layer %d (%s) expects %d input channels, producer %d (%s) emits %d",
					ErrBadShape, i, l.Name, l.InC, in, p.Name, p.OutC)
			}
			if p.OutH() != l.InH || p.OutW() != l.InW {
				return fmt.Errorf("%w: layer %d (%s) expects %dx%d input, producer %d (%s) emits %dx%d",
					ErrBadShape, i, l.Name, l.InH, l.InW, in, p.Name, p.OutH(), p.OutW())
			}
		}
	}
	return nil
}

// WeightLayers returns the indices of layers that carry weights (the
// layers that appear in the sub-layer scheduling tables).
func (n *Network) WeightLayers() []int {
	var idx []int
	for i, l := range n.Layers {
		if l.Type.HasWeights() {
			idx = append(idx, i)
		}
	}
	return idx
}

// CountByType tallies layers per type, as reported in Table II.
func (n *Network) CountByType() map[LayerType]int {
	m := make(map[LayerType]int)
	for _, l := range n.Layers {
		m[l.Type]++
	}
	return m
}

// TotalWeights returns the number of weight elements across the net.
func (n *Network) TotalWeights() int64 {
	var sum int64
	for _, l := range n.Layers {
		sum += l.WeightCount()
	}
	return sum
}

// TotalMACs returns the multiply-accumulate count for one inference.
func (n *Network) TotalMACs() int64 {
	var sum int64
	for _, l := range n.Layers {
		sum += l.MACs()
	}
	return sum
}

// InputBytes returns the bytes of the network's external input
// (feature elements of layers with no producers), at the given element
// size.
func (n *Network) InputBytes(elemBytes int) int64 {
	var sum int64
	for i := range n.Layers {
		if l := &n.Layers[i]; len(l.Inputs) == 0 {
			sum += l.InputCount() * int64(elemBytes)
		}
	}
	return sum
}

// OutputBytes returns the bytes of the network's external output
// (feature elements of layers nothing consumes).
func (n *Network) OutputBytes(elemBytes int) int64 {
	consumed := make([]bool, len(n.Layers))
	for i := range n.Layers {
		for _, in := range n.Layers[i].Inputs {
			consumed[in] = true
		}
	}
	var sum int64
	for i := range n.Layers {
		if !consumed[i] {
			sum += n.Layers[i].OutputCount() * int64(elemBytes)
		}
	}
	return sum
}
