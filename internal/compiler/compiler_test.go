package compiler

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"aimt/internal/arch"
	"aimt/internal/nn"
)

func compile(t *testing.T, net *nn.Network, batch int) *CompiledNetwork {
	t.Helper()
	cn, err := Compile(net, arch.PaperConfig(), batch)
	if err != nil {
		t.Fatalf("compile %s: %v", net.Name, err)
	}
	if err := cn.Validate(); err != nil {
		t.Fatalf("validate %s: %v", net.Name, err)
	}
	return cn
}

// Algorithm 1 on a CONV layer: 64 3x3x64 filters on 56x56 input.
func TestEstimateConv(t *testing.T) {
	b := nn.NewBuilder("one", 64, 56, 56)
	b.Conv("conv", 64, 3, 1, 1)
	cn := compile(t, b.MustBuild(), 1)
	l := cn.Layers[0]

	c := arch.PaperConfig()
	if l.MBCycles != c.ReadCyclesPerArray() {
		t.Errorf("MB = %d, want read_cyc_per_array = %d", l.MBCycles, c.ReadCyclesPerArray())
	}
	// CB = ceil(56*56/16)*1 + 256 = 196 + 256.
	if want := arch.Cycles(196 + 256); l.CBCycles != want {
		t.Errorf("CB = %d, want %d", l.CBCycles, want)
	}
	// iters = ceil(64/128) * ceil(64*9/128) = 1 * 5.
	if l.Iters != 5 {
		t.Errorf("iters = %d, want 5", l.Iters)
	}
	if l.MBBlocks != 1 {
		t.Errorf("MBBlocks = %d, want 1 (shared weight mapping)", l.MBBlocks)
	}
}

// Algorithm 1 on an FC layer: 25088 -> 4096 (VGG fc6).
func TestEstimateFC(t *testing.T) {
	b := nn.NewBuilder("one", 25088, 1, 1)
	b.FC("fc", 4096)
	cn := compile(t, b.MustBuild(), 1)
	l := cn.Layers[0]

	c := arch.PaperConfig()
	if want := c.ReadCyclesPerArray() * arch.Cycles(c.NumArrays); l.MBCycles != want {
		t.Errorf("MB = %d, want %d (all arrays hold distinct weights)", l.MBCycles, want)
	}
	if want := arch.Cycles(1 + 256); l.CBCycles != want {
		t.Errorf("CB = %d, want %d (batch + fill)", l.CBCycles, want)
	}
	// iters = ceil(4096/2048) * ceil(25088/128) = 2 * 196.
	if l.Iters != 392 {
		t.Errorf("iters = %d, want 392", l.Iters)
	}
	if l.MBBlocks != 16 {
		t.Errorf("MBBlocks = %d, want NumArrays", l.MBBlocks)
	}
	if !l.MemoryIntensive() {
		t.Error("FC sub-layer not memory-intensive at batch 1")
	}
}

// Depthwise convolutions contract only k*k per output channel.
func TestEstimateDWConv(t *testing.T) {
	b := nn.NewBuilder("one", 256, 28, 28)
	b.DWConv("dw", 3, 1, 1)
	cn := compile(t, b.MustBuild(), 1)
	l := cn.Layers[0]
	// iters = ceil(256/128) * ceil(9/128) = 2.
	if l.Iters != 2 {
		t.Errorf("iters = %d, want 2", l.Iters)
	}
}

func TestBatchScalesCBNotMB(t *testing.T) {
	b := nn.NewBuilder("one", 64, 56, 56)
	b.Conv("conv", 64, 3, 1, 1)
	net := b.MustBuild()
	one := compile(t, net, 1)
	eight := compile(t, net, 8)
	if one.Layers[0].MBCycles != eight.Layers[0].MBCycles {
		t.Error("MB cycles changed with batch")
	}
	if one.Layers[0].Iters != eight.Layers[0].Iters {
		t.Error("iters changed with batch")
	}
	// CB = ceil(ow*oh/arrays)*batch + fill grows linearly in batch.
	fill := arch.PaperConfig().FillLatency
	if got, want := eight.Layers[0].CBCycles-fill, 8*(one.Layers[0].CBCycles-fill); got != want {
		t.Errorf("batch-8 CB work = %d, want %d", got, want)
	}
}

func TestPoolLayersFused(t *testing.T) {
	cn := compile(t, nn.VGG16(), 1)
	if len(cn.Layers) != 16 {
		t.Fatalf("VGG16 compiled layers = %d, want 16 (13 conv + 3 fc)", len(cn.Layers))
	}
	for _, l := range cn.Layers {
		if l.Type == nn.Pool {
			t.Errorf("pool layer %s survived compilation", l.Name)
		}
	}
	// Dependencies pass through the fused pools: conv2_1 (index 2)
	// depends on conv1_2 (index 1).
	if got := cn.Layers[2].Deps; len(got) != 1 || got[0] != 1 {
		t.Errorf("conv2_1 deps = %v, want [1]", got)
	}
}

func TestResidualDependencies(t *testing.T) {
	cn := compile(t, nn.ResNet50(), 1)
	// Some layer must have two predecessors (post-residual convs).
	found := false
	for _, l := range cn.Layers {
		if len(l.Deps) == 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no compiled layer carries a residual double dependency")
	}
	// Posts must mirror Deps.
	for i, l := range cn.Layers {
		for _, d := range l.Deps {
			ok := false
			for _, p := range cn.Layers[d].Posts {
				if p == i {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("layer %d dep %d not mirrored in Posts", i, d)
			}
		}
	}
}

func TestWeightBytesMatchBlocks(t *testing.T) {
	cn := compile(t, nn.ResNet50(), 1)
	c := arch.PaperConfig()
	for _, l := range cn.Layers {
		if l.MBBytes != c.BlockBytes()*arch.Bytes(l.MBBlocks) {
			t.Errorf("%s: MBBytes %d != blocks %d * %d", l.Name, l.MBBytes, l.MBBlocks, c.BlockBytes())
		}
	}
}

func TestGNMTMemoryIntensive(t *testing.T) {
	for _, batch := range []int{1, 8, 32} {
		cn := compile(t, nn.GNMT(), batch)
		if !cn.MemoryIntensive() {
			t.Errorf("GNMT at batch %d not memory-intensive", batch)
		}
		for _, l := range cn.Layers {
			if !l.MemoryIntensive() {
				t.Errorf("GNMT %s at batch %d not memory-intensive", l.Name, batch)
			}
		}
	}
}

func TestCNNsComputeIntensive(t *testing.T) {
	for _, name := range []string{"RN34", "RN50", "MN"} {
		net, err := nn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cn := compile(t, net, 1)
		if cn.MemoryIntensive() {
			t.Errorf("%s classified memory-intensive", name)
		}
	}
}

func TestVGGSplitPersonality(t *testing.T) {
	// The paper's Fig 5: VGG16's conv layers are compute-intensive,
	// its FC layers memory-intensive.
	cn := compile(t, nn.VGG16(), 1)
	for _, l := range cn.Layers {
		memory := l.MemoryIntensive()
		if l.Type == nn.FC && !memory {
			t.Errorf("%s (FC) not memory-intensive", l.Name)
		}
		if l.Type == nn.Conv && memory {
			t.Errorf("%s (CONV) not compute-intensive", l.Name)
		}
	}
}

func TestHostBytes(t *testing.T) {
	cn := compile(t, nn.VGG16(), 4)
	if want := arch.Bytes(3 * 224 * 224 * 4); cn.HostInBytes != want {
		t.Errorf("HostInBytes = %d, want %d", cn.HostInBytes, want)
	}
	if want := arch.Bytes(1000 * 4); cn.HostOutBytes != want {
		t.Errorf("HostOutBytes = %d, want %d", cn.HostOutBytes, want)
	}
}

func TestCompileRejects(t *testing.T) {
	if _, err := Compile(nn.VGG16(), arch.PaperConfig(), 0); !errors.Is(err, ErrBadBatch) {
		t.Errorf("batch 0: %v", err)
	}
	bad := &nn.Network{Name: "bad"}
	if _, err := Compile(bad, arch.PaperConfig(), 1); err == nil {
		t.Error("empty network compiled")
	}
	poolOnly := nn.NewBuilder("pool", 3, 8, 8)
	poolOnly.Pool("p", 2, 2, 0)
	if _, err := Compile(poolOnly.MustBuild(), arch.PaperConfig(), 1); err == nil {
		t.Error("weightless network compiled")
	}
}

func TestStatsTotals(t *testing.T) {
	cn := compile(t, nn.ResNet34(), 1)
	s := cn.Stats()
	var subs int
	var mb, cb arch.Cycles
	var wb arch.Bytes
	for _, l := range cn.Layers {
		subs += l.Iters
		mb += l.TotalMBCycles()
		cb += l.TotalCBCycles()
		wb += l.TotalWeightBytes()
	}
	if s.SubLayers != subs || s.MBCycles != mb || s.CBCycles != cb || s.WeightBytes != wb {
		t.Errorf("Stats() = %+v, recomputed %d/%d/%d/%d", s, subs, mb, cb, wb)
	}
}

// Compiled weight traffic must cover the model's true weight count
// (block-granular fetches round up, never down).
func TestWeightTrafficCoversModel(t *testing.T) {
	for name, net := range nn.Zoo() {
		cn := compile(t, net, 1)
		traffic := int64(cn.Stats().WeightBytes)
		if traffic < net.TotalWeights() {
			t.Errorf("%s: weight traffic %d < model weights %d", name, traffic, net.TotalWeights())
		}
	}
}

// Property: sub-layer counts scale with layer dimensions as ceil
// ratios — iters is monotone in OutC for CONV layers.
func TestPropertyItersMonotoneInOutC(t *testing.T) {
	c := arch.PaperConfig()
	f := func(a, b uint8) bool {
		oc1, oc2 := int(a)+1, int(b)+1
		if oc1 > oc2 {
			oc1, oc2 = oc2, oc1
		}
		mk := func(oc int) CompiledLayer {
			bld := nn.NewBuilder("x", 64, 28, 28)
			bld.Conv("c", oc*8, 3, 1, 1)
			cn, err := Compile(bld.MustBuild(), c, 1)
			if err != nil {
				t.Fatal(err)
			}
			return cn.Layers[0]
		}
		return mk(oc1).Iters <= mk(oc2).Iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cn := compile(t, nn.VGG16(), 1)
	cn.Layers[3].Iters = 0
	if err := cn.Validate(); err == nil {
		t.Error("zero iters accepted")
	}
	cn = compile(t, nn.VGG16(), 1)
	cn.Layers[3].Deps = []int{7}
	if err := cn.Validate(); err == nil {
		t.Error("forward dep accepted")
	}
}

// TestLabels pins the trace labels, for compiled and hand-built
// tables alike: prefix plus layer name, resolved once, so reading one
// never allocates.
func TestLabels(t *testing.T) {
	cn := compile(t, nn.ResNet50(), 1)
	hand := &CompiledNetwork{Name: cn.Name, Batch: cn.Batch, Layers: cn.Layers}
	for i, l := range cn.Layers {
		for k, want := range map[LabelKind]string{LabelMB: "MB:" + l.Name, LabelCB: "CB:" + l.Name, LabelCBSplit: "CB(split):" + l.Name} {
			if got := cn.Label(k, i); got != want {
				t.Errorf("layer %d label %d = %q, want %q", i, k, got, want)
			}
			if got := hand.Label(k, i); got != want {
				t.Errorf("hand-built layer %d label %d = %q, want %q", i, k, got, want)
			}
		}
	}
	last := len(cn.Layers) - 1
	if n := testing.AllocsPerRun(100, func() { _ = cn.Label(LabelCBSplit, last) }); n != 0 {
		t.Errorf("Label allocated %.0f times per call", n)
	}
}

// TestLabelsConcurrent resolves one network's labels from several
// goroutines at once, as parallel traced runs sharing a compiled
// network do; run it under -race.
func TestLabelsConcurrent(t *testing.T) {
	cn := compile(t, nn.ResNet50(), 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, l := range cn.Layers {
				if got := cn.Label(LabelCB, i); got != "CB:"+l.Name {
					t.Errorf("layer %d label %q", i, got)
				}
			}
		}()
	}
	wg.Wait()
}
