package nn

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestLayerTypeString(t *testing.T) {
	cases := map[LayerType]string{
		Conv: "CONV", DWConv: "DWCONV", FC: "FC", Pool: "POOL",
		LayerType(42): "LayerType(42)",
	}
	for lt, want := range cases {
		if got := lt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(lt), got, want)
		}
	}
}

func TestHasWeights(t *testing.T) {
	if !Conv.HasWeights() || !DWConv.HasWeights() || !FC.HasWeights() {
		t.Error("weight layers misclassified")
	}
	if Pool.HasWeights() {
		t.Error("Pool reports weights")
	}
}

func TestConvOutputShape(t *testing.T) {
	cases := []struct {
		in, k, stride, pad int
		want               int
	}{
		{224, 3, 1, 1, 224}, // same-padded 3x3
		{224, 3, 2, 1, 112}, // strided
		{224, 7, 2, 3, 112}, // ResNet stem
		{112, 3, 2, 1, 56},  // ResNet maxpool
		{224, 2, 2, 0, 112}, // VGG pool
		{7, 7, 7, 0, 1},     // global pool
		{5, 7, 1, 0, 1},     // kernel larger than input clamps to 1
	}
	for _, tc := range cases {
		l := Layer{InH: tc.in, InW: tc.in, Kernel: tc.k, Stride: tc.stride, Pad: tc.pad}
		if got := l.OutH(); got != tc.want {
			t.Errorf("out(%d,k=%d,s=%d,p=%d) = %d, want %d", tc.in, tc.k, tc.stride, tc.pad, got, tc.want)
		}
	}
}

func TestWeightCount(t *testing.T) {
	conv := Layer{Type: Conv, InC: 64, OutC: 128, Kernel: 3}
	if got, want := conv.WeightCount(), int64(64*3*3*128); got != want {
		t.Errorf("conv weights = %d, want %d", got, want)
	}
	dw := Layer{Type: DWConv, InC: 64, OutC: 64, Kernel: 3}
	if got, want := dw.WeightCount(), int64(64*3*3); got != want {
		t.Errorf("dw weights = %d, want %d", got, want)
	}
	fc := Layer{Type: FC, InC: 4096, OutC: 1000}
	if got, want := fc.WeightCount(), int64(4096*1000); got != want {
		t.Errorf("fc weights = %d, want %d", got, want)
	}
	pool := Layer{Type: Pool, InC: 64, OutC: 64, Kernel: 2}
	if got := pool.WeightCount(); got != 0 {
		t.Errorf("pool weights = %d, want 0", got)
	}
}

func TestMACs(t *testing.T) {
	conv := Layer{Type: Conv, InC: 3, InH: 224, InW: 224, OutC: 64, Kernel: 3, Stride: 1, Pad: 1}
	want := int64(224*224) * 64 * 3 * 9
	if got := conv.MACs(); got != want {
		t.Errorf("conv MACs = %d, want %d", got, want)
	}
}

// Table II fidelity: layer counts per network.
func TestZooMatchesTable2(t *testing.T) {
	cases := []struct {
		net      *Network
		fc, conv int
	}{
		{ResNet34(), 1, 36},
		{ResNet50(), 1, 53},
		{VGG16(), 3, 13},
		{MobileNet(), 1, 27},
		{GNMT(), 6, 0},
	}
	for _, tc := range cases {
		c := tc.net.CountByType()
		conv := c[Conv] + c[DWConv]
		if c[FC] != tc.fc || conv != tc.conv {
			t.Errorf("%s: FC=%d CONV=%d, want FC=%d CONV=%d",
				tc.net.Name, c[FC], conv, tc.fc, tc.conv)
		}
	}
}

func TestZooValidates(t *testing.T) {
	for name, net := range Zoo() {
		if err := net.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Published parameter counts (weights only, no biases): ResNet-50
// ~25.5M, VGG-16 ~138.3M, MobileNetV1 ~4.2M, ResNet-34 ~21.8M.
func TestZooWeightCounts(t *testing.T) {
	cases := []struct {
		net    *Network
		lo, hi int64
	}{
		{ResNet34(), 21_000_000, 22_000_000},
		{ResNet50(), 25_000_000, 26_000_000},
		{VGG16(), 138_000_000, 139_000_000},
		{MobileNet(), 4_000_000, 4_500_000},
		{GNMT(), 60_000_000, 80_000_000},
	}
	for _, tc := range cases {
		if got := tc.net.TotalWeights(); got < tc.lo || got > tc.hi {
			t.Errorf("%s weights = %d, want within [%d, %d]", tc.net.Name, got, tc.lo, tc.hi)
		}
	}
}

// Published MAC counts for 224x224 inputs: ResNet-50 ~4.1 GMACs,
// VGG-16 ~15.5 GMACs, MobileNetV1 ~0.57 GMACs, ResNet-34 ~3.6 GMACs.
func TestZooMACCounts(t *testing.T) {
	cases := []struct {
		net    *Network
		lo, hi int64
	}{
		{ResNet34(), 3_400_000_000, 3_800_000_000},
		{ResNet50(), 3_800_000_000, 4_300_000_000},
		{VGG16(), 15_000_000_000, 16_000_000_000},
		{MobileNet(), 500_000_000, 650_000_000},
	}
	for _, tc := range cases {
		if got := tc.net.TotalMACs(); got < tc.lo || got > tc.hi {
			t.Errorf("%s MACs = %d, want within [%d, %d]", tc.net.Name, got, tc.lo, tc.hi)
		}
	}
}

func TestResNetFinalShapes(t *testing.T) {
	for _, net := range []*Network{ResNet34(), ResNet50()} {
		last := net.Layers[len(net.Layers)-1]
		if last.Type != FC || last.OutC != 1000 {
			t.Errorf("%s final layer = %v/%d", net.Name, last.Type, last.OutC)
		}
		if last.InC != 512 && last.InC != 2048 {
			t.Errorf("%s classifier input = %d", net.Name, last.InC)
		}
	}
}

func TestResNetHasResidualEdges(t *testing.T) {
	net := ResNet50()
	multi := 0
	for _, l := range net.Layers {
		if len(l.Inputs) > 1 {
			multi++
		}
	}
	// One join per bottleneck block: 3+4+6+3 = 16.
	if multi != 16 {
		t.Errorf("ResNet50 residual joins = %d, want 16", multi)
	}
}

func TestVGG16Shapes(t *testing.T) {
	net := VGG16()
	// fc6 flattens 512x7x7.
	for _, l := range net.Layers {
		if l.Name == "fc6" && l.InC != 512*7*7 {
			t.Errorf("fc6 input = %d, want %d", l.InC, 512*7*7)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"RN34", "ResNet34", "resnet50", "VGG16", "MN", "gnmt"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
}

// TestZooBuildersSized checks that every ByName network is built into
// a layer slice of exactly its size, so no zoo builder regrows it.
func TestZooBuildersSized(t *testing.T) {
	for name := range byName {
		net, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(net.Layers) != cap(net.Layers) {
			t.Errorf("%s: %d layers in a slice of capacity %d", name, len(net.Layers), cap(net.Layers))
		}
	}
}

func TestBuilderChain(t *testing.T) {
	b := NewBuilder("tiny", 3, 32, 32)
	b.Conv("c1", 16, 3, 1, 1)
	b.Pool("p1", 2, 2, 0)
	b.FC("fc", 10)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(net.Layers))
	}
	fc := net.Layers[2]
	if fc.InC != 16*16*16 {
		t.Errorf("fc input = %d, want %d (16ch x 16x16)", fc.InC, 16*16*16)
	}
}

func TestBuilderResidual(t *testing.T) {
	b := NewBuilder("res", 8, 16, 16)
	e := b.Conv("a", 8, 3, 1, 1)
	b.Conv("b", 8, 3, 1, 1)
	b.Add(e)
	b.Conv("c", 8, 3, 1, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := net.Layers[2]
	if len(c.Inputs) != 2 || c.Inputs[0] != 1 || c.Inputs[1] != 0 {
		t.Errorf("residual inputs = %v, want [1 0]", c.Inputs)
	}
}

func TestBuilderConvFrom(t *testing.T) {
	b := NewBuilder("proj", 8, 16, 16)
	e := b.Conv("a", 8, 3, 1, 1)
	b.Conv("b", 16, 3, 2, 1)
	b.ConvFrom("proj", e, 16, 1, 2, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := net.Layers[2]
	if len(p.Inputs) != 1 || p.Inputs[0] != 0 {
		t.Errorf("proj inputs = %v, want [0]", p.Inputs)
	}
	if p.OutH() != net.Layers[1].OutH() {
		t.Errorf("proj output %d != branch output %d", p.OutH(), net.Layers[1].OutH())
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad", 3, 8, 8)
	b.Conv("c", 8, 3, 1, 1)
	b.ConvFrom("x", 99, 8, 1, 1, 0)
	if _, err := b.Build(); err == nil {
		t.Error("ConvFrom with bad index built successfully")
	}
	b2 := NewBuilder("bad2", 3, 8, 8)
	b2.Conv("c", 8, 3, 1, 1)
	b2.Add(5)
	if _, err := b2.Build(); err == nil {
		t.Error("Add with bad index built successfully")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on empty network did not panic")
		}
	}()
	NewBuilder("empty", 3, 8, 8).MustBuild()
}

func TestValidateRejects(t *testing.T) {
	empty := &Network{Name: "empty"}
	if err := empty.Validate(); !errors.Is(err, ErrEmptyNetwork) {
		t.Errorf("empty: %v", err)
	}
	fwd := &Network{Name: "fwd", Layers: []Layer{
		{Name: "a", Type: Conv, InC: 3, InH: 8, InW: 8, OutC: 8, Kernel: 3, Stride: 1, Pad: 1, Inputs: []int{1}},
		{Name: "b", Type: Conv, InC: 8, InH: 8, InW: 8, OutC: 8, Kernel: 3, Stride: 1, Pad: 1},
	}}
	if err := fwd.Validate(); !errors.Is(err, ErrBadTopology) {
		t.Errorf("forward edge: %v", err)
	}
	mismatch := &Network{Name: "mm", Layers: []Layer{
		{Name: "a", Type: Conv, InC: 3, InH: 8, InW: 8, OutC: 8, Kernel: 3, Stride: 1, Pad: 1},
		{Name: "b", Type: Conv, InC: 16, InH: 8, InW: 8, OutC: 8, Kernel: 3, Stride: 1, Pad: 1, Inputs: []int{0}},
	}}
	if err := mismatch.Validate(); !errors.Is(err, ErrBadShape) {
		t.Errorf("channel mismatch: %v", err)
	}
}

func TestInputOutputBytes(t *testing.T) {
	net := VGG16()
	if got, want := net.InputBytes(1), int64(3*224*224); got != want {
		t.Errorf("VGG input bytes = %d, want %d", got, want)
	}
	if got, want := net.OutputBytes(1), int64(1000); got != want {
		t.Errorf("VGG output bytes = %d, want %d", got, want)
	}
}

func TestWeightLayers(t *testing.T) {
	net := VGG16()
	wl := net.WeightLayers()
	if len(wl) != 16 {
		t.Errorf("VGG weight layers = %d, want 16", len(wl))
	}
	for _, i := range wl {
		if !net.Layers[i].Type.HasWeights() {
			t.Errorf("layer %d is not a weight layer", i)
		}
	}
}

// Shape inference is consistent across random chain networks: every
// produced network validates.
func TestPropertyBuilderChainsValidate(t *testing.T) {
	f := func(seed uint32) bool {
		r := seed
		next := func(n uint32) int { r = r*1664525 + 1013904223; return int(r % n) }
		b := NewBuilder("rand", 1+next(8), 16+next(64), 16+next(64))
		layers := 1 + next(12)
		for i := 0; i < layers; i++ {
			switch next(4) {
			case 0:
				b.Conv("c", 1+next(64), 1+2*next(3), 1+next(2), next(2))
			case 1:
				b.DWConv("d", 3, 1, 1)
			case 2:
				b.Pool("p", 2, 2, 0)
			default:
				b.FC("f", 1+next(256))
			}
		}
		net, err := b.Build()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return net.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
