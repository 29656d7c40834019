package nn

import (
	"fmt"
	"strconv"
)

// This file defines the evaluation networks of the paper's Table II:
//
//	Name       FC  CONV  Batch
//	ResNet34    1    36   1-32
//	ResNet50    1    53   1-32
//	VGG16       3    13   1-32
//	MobileNet   1    27   1-32
//	GNMT        6     -   1-32
//
// The definitions follow the published architectures; depthwise
// convolutions in MobileNet count as CONV layers, matching Table II.

// VGG16 returns the VGG-16 network (Simonyan & Zisserman, 2014) for
// 224x224x3 inputs: 13 convolutions in five stages and 3 FC layers.
func VGG16() *Network {
	b := newBuilder("VGG16", 3, 224, 224, 21)
	stage := func(s int, convs, outC int) {
		for i := 1; i <= convs; i++ {
			b.Conv("conv"+strconv.Itoa(s)+"_"+strconv.Itoa(i), outC, 3, 1, 1)
		}
		b.Pool("pool"+strconv.Itoa(s), 2, 2, 0)
	}
	stage(1, 2, 64)
	stage(2, 2, 128)
	stage(3, 3, 256)
	stage(4, 3, 512)
	stage(5, 3, 512)
	b.FC("fc6", 4096)
	b.FC("fc7", 4096)
	b.FC("fc8", 1000)
	return b.MustBuild()
}

// ResNet34 returns the ResNet-34 network (He et al., 2016): an initial
// 7x7 convolution, four stages of basic blocks (3, 4, 6, 3 blocks of
// two 3x3 convolutions), projection shortcuts at stage transitions,
// global average pooling, and one FC classifier. 36 CONV + 1 FC.
func ResNet34() *Network {
	b := newBuilder("ResNet34", 3, 224, 224, 39)
	b.Conv("conv1", 64, 7, 2, 3)
	b.Pool("pool1", 3, 2, 1)

	basicBlock := func(name string, outC, stride int) {
		entry := b.Mark()
		a := b.Conv(name+"a", outC, 3, stride, 1)
		_ = a
		main := b.Conv(name+"b", outC, 3, 1, 1)
		if stride != 1 || b.net.Layers[entry].OutC != outC {
			b.ConvFrom(name+"_proj", entry, outC, 1, stride, 0)
			b.Add(main)
		} else {
			b.Add(entry)
		}
	}
	stage := func(s, blocks, outC, stride int) {
		for i := 1; i <= blocks; i++ {
			st := 1
			if i == 1 {
				st = stride
			}
			basicBlock("conv"+strconv.Itoa(s)+"_"+strconv.Itoa(i), outC, st)
		}
	}
	stage(2, 3, 64, 1)
	stage(3, 4, 128, 2)
	stage(4, 6, 256, 2)
	stage(5, 3, 512, 2)
	b.GlobalPool("avgpool")
	b.FC("fc", 1000)
	return b.MustBuild()
}

// ResNet50 returns the ResNet-50 network (He et al., 2016): an initial
// 7x7 convolution, four stages of bottleneck blocks (3, 4, 6, 3 blocks
// of 1x1-3x3-1x1 convolutions), projection shortcuts on every stage
// entry, global average pooling, and one FC classifier. 53 CONV + 1 FC.
func ResNet50() *Network {
	b := newBuilder("ResNet50", 3, 224, 224, 56)
	b.Conv("conv1", 64, 7, 2, 3)
	b.Pool("pool1", 3, 2, 1)

	bottleneck := func(name string, midC, stride int) {
		outC := 4 * midC
		entry := b.Mark()
		b.Conv(name+"a", midC, 1, stride, 0)
		b.Conv(name+"b", midC, 3, 1, 1)
		main := b.Conv(name+"c", outC, 1, 1, 0)
		if stride != 1 || b.net.Layers[entry].OutC != outC {
			b.ConvFrom(name+"_proj", entry, outC, 1, stride, 0)
			b.Add(main)
		} else {
			b.Add(entry)
		}
	}
	stage := func(s, blocks, midC, stride int) {
		for i := 1; i <= blocks; i++ {
			st := 1
			if i == 1 {
				st = stride
			}
			bottleneck("conv"+strconv.Itoa(s)+"_"+strconv.Itoa(i), midC, st)
		}
	}
	stage(2, 3, 64, 1)
	stage(3, 4, 128, 2)
	stage(4, 6, 256, 2)
	stage(5, 3, 512, 2)
	b.GlobalPool("avgpool")
	b.FC("fc", 1000)
	return b.MustBuild()
}

// MobileNet returns MobileNetV1 (Howard et al., 2017) at width
// multiplier 1.0 for 224x224x3 inputs: one standard convolution
// followed by 13 depthwise-separable blocks (depthwise 3x3 + pointwise
// 1x1), global average pooling, and one FC classifier. Counting
// depthwise and pointwise convolutions as CONV layers gives the
// paper's 27 CONV + 1 FC.
func MobileNet() *Network {
	b := newBuilder("MobileNet", 3, 224, 224, 29)
	b.Conv("conv1", 32, 3, 2, 1)
	sep := func(i, outC, stride int) {
		b.DWConv("conv_dw"+strconv.Itoa(i), 3, stride, 1)
		b.Conv("conv_pw"+strconv.Itoa(i), outC, 1, 1, 0)
	}
	sep(1, 64, 1)
	sep(2, 128, 2)
	sep(3, 128, 1)
	sep(4, 256, 2)
	sep(5, 256, 1)
	sep(6, 512, 2)
	for i := 7; i <= 11; i++ {
		sep(i, 512, 1)
	}
	sep(12, 1024, 2)
	sep(13, 1024, 1)
	b.GlobalPool("avgpool")
	b.FC("fc", 1000)
	return b.MustBuild()
}

// GNMT returns the 6-FC-layer abstraction of Google's neural machine
// translation model used by the paper's Table II: bidirectional
// encoder LSTM, two stacked encoder LSTMs, decoder LSTM, attention,
// and the vocabulary projection. LSTM layers compute the four gate
// matrices as one (2*hidden) x (4*hidden) matrix product; hidden size
// is 1024 and the vocabulary is 32k. Following Table II, each FC layer
// executes once per inference (the paper schedules GNMT as six FC
// layer executions; the embedding lookup stays on the CPU, §V-A), so
// every layer is memory-intensive at any batch size — the property the
// co-location studies rely on.
func GNMT() *Network {
	const hidden = 1024
	b := newBuilder("GNMT", 2*hidden, 1, 1, 6)
	lstm := func(name string) {
		b.push(Layer{
			Name: name, Type: FC,
			InC: 2 * hidden, InH: 1, InW: 1,
			OutC: 4 * hidden, Kernel: 1, Stride: 1,
		})
	}
	lstm("enc_bi_lstm")
	lstm("enc_lstm1")
	lstm("enc_lstm2")
	lstm("dec_lstm")
	b.push(Layer{
		Name: "attention", Type: FC,
		InC: 2 * hidden, InH: 1, InW: 1,
		OutC: hidden, Kernel: 1, Stride: 1,
	})
	b.push(Layer{
		Name: "projection", Type: FC,
		InC: hidden, InH: 1, InW: 1,
		OutC: 32768, Kernel: 1, Stride: 1,
	})
	return b.MustBuild()
}

// Zoo returns the five evaluation networks of Table II, keyed by the
// short names used throughout the paper's figures.
func Zoo() map[string]*Network {
	return map[string]*Network{
		"RN34":  ResNet34(),
		"RN50":  ResNet50(),
		"VGG16": VGG16(),
		"MN":    MobileNet(),
		"GNMT":  GNMT(),
	}
}

// byName maps every short and long zoo name to its constructor.
var byName = map[string]func() *Network{
	"RN34": ResNet34, "ResNet34": ResNet34, "resnet34": ResNet34,
	"RN50": ResNet50, "ResNet50": ResNet50, "resnet50": ResNet50,
	"VGG16": VGG16, "vgg16": VGG16,
	"MN": MobileNet, "MobileNet": MobileNet, "mobilenet": MobileNet,
	"GNMT": GNMT, "gnmt": GNMT,
	"BERT": bert, "bert": bert,
	"GPT2": gpt2Prefill, "gpt2": gpt2Prefill,
	"GPT2-decode": gpt2Decode, "gpt2-decode": gpt2Decode,
}

// The transformer zoo entries, at a 128-token prompt or context.
func bert() *Network        { return BERTBase(128) }
func gpt2Prefill() *Network { return GPT2Prefill(128) }
func gpt2Decode() *Network  { return GPT2Decode(128) }

// ByName returns the zoo network with the given short or long name.
func ByName(name string) (*Network, error) {
	if f, ok := byName[name]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("nn: unknown network %q", name)
}
