package nn

import (
	"fmt"
	"strconv"
)

// This file extends the zoo with transformer networks. A transformer
// pass is modeled per block as the paper models GNMT — weight-bearing
// matmuls with everything elementwise fused away — plus the two
// KV-cache attention matmuls that CNNs and GNMT have no analogue for:
//
//	qkv       FC    hidden -> 3*hidden, streamed over SeqLen tokens
//	score     Attn  Q x K^T over Context cached entries
//	softmax   fused (vector unit, dependency edge only)
//	context   Attn  softmax(scores) x V over the same cache
//	proj      FC    hidden -> hidden
//	mlp_up    FC    hidden -> FFN
//	mlp_down  FC    FFN -> hidden
//
// The same topology serves both request phases. A prefill pass sets
// SeqLen = Context = prompt length: each FC fetch is reused across
// SeqLen tokens (Repeat) and each Attn computes SeqLen query positions,
// so compute blocks dwarf memory blocks. A decode pass sets SeqLen = 1
// against a grown Context: every fetch feeds a single token and the
// pass is memory-bound — the MB/CB intensity mismatch the AI-MT
// co-execution exploits across concurrent requests.

// TransformerConfig sizes a transformer pass for the zoo builder.
type TransformerConfig struct {
	// Name labels the network; empty means "transformer".
	Name string

	// Blocks is the encoder/decoder block count.
	Blocks int

	// Hidden is the model width; must be divisible by Heads.
	Hidden int

	// Heads is the attention head count per block.
	Heads int

	// FFN is the feed-forward inner width.
	FFN int

	// OutProj is the width of a final output projection — an LM head
	// over the vocabulary (GPT) or a classifier (BERT). Zero omits it.
	OutProj int

	// SeqLen is the number of query tokens this pass computes: the
	// prompt length for prefill, 1 for one decode iteration.
	SeqLen int

	// Context is the KV-cache length attended over. Prefill uses
	// Context = SeqLen; decode attends over the accumulated sequence,
	// so Context >= SeqLen.
	Context int
}

// Transformer builds the pass described by c.
func Transformer(c TransformerConfig) (*Network, error) {
	if c.Name == "" {
		c.Name = "transformer"
	}
	if c.Blocks <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.FFN <= 0 {
		return nil, fmt.Errorf("%w: transformer %q needs positive Blocks/Hidden/Heads/FFN, got %d/%d/%d/%d",
			ErrBadShape, c.Name, c.Blocks, c.Hidden, c.Heads, c.FFN)
	}
	if c.Hidden%c.Heads != 0 {
		return nil, fmt.Errorf("%w: transformer %q: Hidden %d not divisible by Heads %d",
			ErrBadShape, c.Name, c.Hidden, c.Heads)
	}
	if c.SeqLen <= 0 || c.Context < c.SeqLen {
		return nil, fmt.Errorf("%w: transformer %q needs SeqLen >= 1 and Context >= SeqLen, got %d/%d",
			ErrBadShape, c.Name, c.SeqLen, c.Context)
	}

	layers := 7 * c.Blocks
	if c.OutProj > 0 {
		layers++
	}
	b := newBuilder(c.Name, c.Hidden, 1, 1, layers)
	fc := func(name string, inC, outC int) {
		b.push(Layer{
			Name: name, Type: FC,
			InC: inC, InH: 1, InW: 1,
			OutC: outC, Kernel: 1, Stride: 1,
			Repeat: c.SeqLen,
		})
	}
	for i := 1; i <= c.Blocks; i++ {
		p := "blk" + strconv.Itoa(i) + "_"
		fc(p+"qkv", c.Hidden, 3*c.Hidden)
		b.Attn(p+"score", c.Hidden, c.Heads, c.Context, c.SeqLen)
		b.Softmax(p + "softmax")
		b.Attn(p+"context", c.Hidden, c.Heads, c.Context, c.SeqLen)
		fc(p+"proj", c.Hidden, c.Hidden)
		fc(p+"mlp_up", c.Hidden, c.FFN)
		fc(p+"mlp_down", c.FFN, c.Hidden)
	}
	if c.OutProj > 0 {
		// The output projection computes logits for the last position
		// only (next-token prediction / [CLS] head), so no token reuse.
		b.push(Layer{
			Name: "out_proj", Type: FC,
			InC: c.Hidden, InH: 1, InW: 1,
			OutC: c.OutProj, Kernel: 1, Stride: 1,
		})
	}
	return b.Build()
}

// MustTransformer is Transformer for static definitions; it panics on
// error.
func MustTransformer(c TransformerConfig) *Network {
	net, err := Transformer(c)
	if err != nil {
		panic(err)
	}
	return net
}

// BERTBase returns a BERT-base encoder pass (Devlin et al., 2019):
// 12 blocks, hidden 768, 12 heads, FFN 3072, with a 2-way classifier
// head, over a seq-token input.
func BERTBase(seq int) *Network {
	return MustTransformer(TransformerConfig{
		Name: "BERT", Blocks: 12, Hidden: 768, Heads: 12, FFN: 3072,
		OutProj: 2, SeqLen: seq, Context: seq,
	})
}

// GPT2Prefill returns a GPT-2-small prefill pass (Radford et al.,
// 2019): 12 blocks, hidden 768, 12 heads, FFN 3072, with the 50257-way
// LM head, over a seq-token prompt.
func GPT2Prefill(seq int) *Network {
	return MustTransformer(TransformerConfig{
		Name: "GPT2", Blocks: 12, Hidden: 768, Heads: 12, FFN: 3072,
		OutProj: 50257, SeqLen: seq, Context: seq,
	})
}

// GPT2Decode returns one GPT-2-small autoregressive decode iteration:
// a single query token attending over a ctx-entry KV cache. Every
// weight fetch feeds one token, so each sub-layer is memory-bound.
func GPT2Decode(ctx int) *Network {
	return MustTransformer(TransformerConfig{
		Name: "GPT2-decode", Blocks: 12, Hidden: 768, Heads: 12, FFN: 3072,
		OutProj: 50257, SeqLen: 1, Context: ctx,
	})
}
