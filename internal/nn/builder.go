package nn

import "fmt"

// Builder constructs a Network incrementally while tracking the
// current feature shape, so chain-structured models read naturally:
//
//	b := nn.NewBuilder("tiny", 3, 32, 32)
//	b.Conv("conv1", 16, 3, 1, 1)
//	b.Pool("pool1", 2, 2)
//	b.FC("fc", 10)
//	net, err := b.Build()
//
// Residual topologies use Mark and Add to reference earlier layers.
type Builder struct {
	net  Network
	curC int // channels emitted by the most recent layer
	curH int
	curW int
	last int // index of the most recent layer, -1 before any
	err  error

	// pendingJoin holds residual sources registered with Add, consumed
	// as extra dependency edges by the next layer appended.
	pendingJoin []int

	// slab is the unused tail of the chunk every layer's Inputs is
	// carved from.
	slab []int
}

// NewBuilder starts a network whose external input has the given
// channel count and spatial extent.
func NewBuilder(name string, inC, inH, inW int) *Builder {
	return newBuilder(name, inC, inH, inW, 16)
}

// newBuilder is NewBuilder with room for the given number of layers.
func newBuilder(name string, inC, inH, inW, layers int) *Builder {
	return &Builder{
		net:  Network{Name: name, Layers: make([]Layer, 0, layers)},
		curC: inC,
		curH: inH,
		curW: inW,
		last: -1,
	}
}

// push appends l reading from the chain tip.
func (b *Builder) push(l Layer) int { return b.pushFrom(l, b.last) }

// pushFrom appends l reading from layer src (none when negative) and
// from the pending residual joins. Its Inputs is a cap-limited window
// of a chunk shared by the network's layers, so an append to one
// layer's Inputs reallocates and never overwrites a neighbour's.
func (b *Builder) pushFrom(l Layer, src int) int {
	if b.err != nil {
		return -1
	}
	n := len(b.pendingJoin)
	if src >= 0 {
		n++
	}
	if n > 0 {
		if len(b.slab) < n {
			// Room for a chain edge per layer plus residual joins.
			b.slab = make([]int, max(n, cap(b.net.Layers)+cap(b.net.Layers)/2))
		}
		l.Inputs = b.slab[:0:n]
		b.slab = b.slab[n:]
		if src >= 0 {
			l.Inputs = append(l.Inputs, src)
		}
		l.Inputs = append(l.Inputs, b.pendingJoin...)
		b.pendingJoin = b.pendingJoin[:0]
	}
	b.net.Layers = append(b.net.Layers, l)
	b.last = len(b.net.Layers) - 1
	b.curC = l.OutC
	b.curH = l.OutH()
	b.curW = l.OutW()
	return b.last
}

// Conv appends a standard convolution with outC filters of size
// k x k, the given stride, and symmetric padding pad. It returns the
// layer index.
func (b *Builder) Conv(name string, outC, k, stride, pad int) int {
	return b.push(Layer{
		Name: name, Type: Conv,
		InC: b.curC, InH: b.curH, InW: b.curW,
		OutC: outC, Kernel: k, Stride: stride, Pad: pad,
	})
}

// DWConv appends a depthwise convolution (one k x k filter per input
// channel); the channel count is unchanged.
func (b *Builder) DWConv(name string, k, stride, pad int) int {
	return b.push(Layer{
		Name: name, Type: DWConv,
		InC: b.curC, InH: b.curH, InW: b.curW,
		OutC: b.curC, Kernel: k, Stride: stride, Pad: pad,
	})
}

// FC appends a fully connected layer with outC outputs. Whatever the
// current feature shape, it is flattened to ic = C*H*W inputs, per the
// paper's FC-as-1x1-CONV view.
func (b *Builder) FC(name string, outC int) int {
	return b.push(Layer{
		Name: name, Type: FC,
		InC: b.curC * b.curH * b.curW, InH: 1, InW: 1,
		OutC: outC, Kernel: 1, Stride: 1,
	})
}

// Attn appends one attention matmul (score or context product) over a
// KV cache of ctx entries at the given hidden width, computing tokens
// query positions across heads attention heads. The input is whatever
// the chain produced (typically the QKV projection or the softmaxed
// scores); like FC, attention reshapes its input, so no edge agreement
// is enforced.
func (b *Builder) Attn(name string, width, heads, ctx, tokens int) int {
	return b.push(Layer{
		Name: name, Type: Attn,
		InC: width, InH: 1, InW: 1,
		OutC: width, Kernel: 1, Stride: 1,
		Heads: heads, Ctx: ctx, Tokens: tokens,
	})
}

// Softmax appends the attention-score normalization. It carries no
// weights and is fused into its producer for scheduling, contributing
// a dependency edge only; the feature shape passes through unchanged.
func (b *Builder) Softmax(name string) int {
	return b.push(Layer{
		Name: name, Type: Softmax,
		InC: b.curC, InH: b.curH, InW: b.curW,
		OutC: b.curC, Kernel: 1, Stride: 1,
	})
}

// Pool appends a pooling layer with a k x k window, given stride, and
// symmetric padding.
func (b *Builder) Pool(name string, k, stride, pad int) int {
	return b.push(Layer{
		Name: name, Type: Pool,
		InC: b.curC, InH: b.curH, InW: b.curW,
		OutC: b.curC, Kernel: k, Stride: stride, Pad: pad,
	})
}

// GlobalPool appends a pooling layer that reduces the spatial extent
// to 1x1 (global average pooling).
func (b *Builder) GlobalPool(name string) int {
	return b.push(Layer{
		Name: name, Type: Pool,
		InC: b.curC, InH: b.curH, InW: b.curW,
		OutC: b.curC, Kernel: b.curH, Stride: b.curH,
	})
}

// Mark returns the index of the most recently appended layer, for use
// as a residual source with ConvFrom or Add.
func (b *Builder) Mark() int { return b.last }

// ConvFrom appends a convolution reading from the given earlier layer
// instead of the most recent one (e.g. a projection shortcut).
func (b *Builder) ConvFrom(name string, from, outC, k, stride, pad int) int {
	if b.err != nil {
		return -1
	}
	if from < 0 || from >= len(b.net.Layers) {
		b.err = fmt.Errorf("nn: ConvFrom %q: bad source index %d", name, from)
		return -1
	}
	src := &b.net.Layers[from]
	return b.pushFrom(Layer{
		Name: name, Type: Conv,
		InC: src.OutC, InH: src.OutH(), InW: src.OutW(),
		OutC: outC, Kernel: k, Stride: stride, Pad: pad,
	}, from)
}

// Add records a residual join: the next layer appended will depend on
// both the current chain tip and the layer at index from. The join
// itself is performed by the accumulator unit and costs nothing, so it
// is expressed purely as an extra dependency edge on the next layer.
func (b *Builder) Add(from int) {
	if b.err != nil {
		return
	}
	if from < 0 || from > b.last {
		b.err = fmt.Errorf("nn: Add: bad source index %d", from)
		return
	}
	b.pendingJoin = append(b.pendingJoin, from)
}

// Build validates and returns the constructed network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	net := b.net
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return &net, nil
}

// MustBuild is Build for static model definitions; it panics on error.
func (b *Builder) MustBuild() *Network {
	net, err := b.Build()
	if err != nil {
		panic(err)
	}
	return net
}
