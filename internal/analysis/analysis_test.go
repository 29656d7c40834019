package analysis

import (
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/nn"
)

func compileVGG(t *testing.T) *compiler.CompiledNetwork {
	t.Helper()
	cn, err := compiler.Compile(nn.VGG16(), arch.PaperConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return cn
}

// Fig 5's qualitative shape: VGG16's early conv layers are dominated
// by computation, the trailing FC layers by memory prefetch.
func TestFig5Shape(t *testing.T) {
	ratios := LatencyRatios(compileVGG(t))
	if len(ratios) != 16 {
		t.Fatalf("layers = %d, want 16", len(ratios))
	}
	first := ratios[0]
	if first.ComputeFraction() < 0.9 {
		t.Errorf("%s compute fraction = %f, want > 0.9", first.Name, first.ComputeFraction())
	}
	fc6 := ratios[13]
	if fc6.Name != "fc6" {
		t.Fatalf("layer 13 = %s, want fc6", fc6.Name)
	}
	if fc6.ComputeFraction() > 0.5 {
		t.Errorf("fc6 compute fraction = %f, want < 0.5", fc6.ComputeFraction())
	}
}

func TestComputeFractionBounds(t *testing.T) {
	for _, r := range LatencyRatios(compileVGG(t)) {
		f := r.ComputeFraction()
		if f < 0 || f > 1 {
			t.Errorf("%s fraction %f out of range", r.Name, f)
		}
	}
	var zero LayerRatio
	if zero.ComputeFraction() != 0 {
		t.Error("zero ratio fraction != 0")
	}
}

// Fig 10's headline: single-batch layer execution can demand over
// 10 MB of prefetch SRAM.
func TestFig10ExceedsTenMB(t *testing.T) {
	c := arch.PaperConfig()
	found := false
	for _, net := range []*nn.Network{nn.VGG16(), nn.ResNet50(), nn.ResNet34()} {
		cn, err := compiler.Compile(net, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if MaxDemand(PrefetchDemands(cn, c)) > 10*arch.MiB {
			found = true
		}
	}
	if !found {
		t.Error("no network demands more than 10 MiB of prefetch SRAM (paper §III-C)")
	}
}

func TestPrefetchDemandsProperties(t *testing.T) {
	c := arch.PaperConfig()
	cn := compileVGG(t)
	d := PrefetchDemands(cn, c)
	if len(d) != len(cn.Layers) {
		t.Fatalf("demands = %d, want %d", len(d), len(cn.Layers))
	}
	var total arch.Bytes
	for _, l := range cn.Layers {
		total += l.TotalWeightBytes()
	}
	for i, x := range d {
		if x.Bytes < 0 {
			t.Errorf("layer %d demand negative", i)
		}
		if x.Bytes > total {
			t.Errorf("layer %d demand %d exceeds total weights %d", i, x.Bytes, total)
		}
		// Occupancy while a layer runs always covers at least that
		// layer's own weights.
		if own := cn.Layers[i].TotalWeightBytes(); x.Bytes < own {
			t.Errorf("layer %d demand %d below its own weights %d", i, x.Bytes, own)
		}
	}
}

// More bandwidth means more prefetched bytes pile up: demand is
// monotone in bandwidth.
func TestDemandGrowsWithBandwidth(t *testing.T) {
	cn := compileVGG(t)
	slow := arch.PaperConfig()
	slow.MemBandwidth = 100_000_000_000
	fast := arch.PaperConfig()
	fast.MemBandwidth = 900_000_000_000
	if MaxDemand(PrefetchDemands(cn, slow)) > MaxDemand(PrefetchDemands(cn, fast)) {
		t.Error("demand not monotone in bandwidth")
	}
}

func TestMaxDemandEmpty(t *testing.T) {
	if MaxDemand(nil) != 0 {
		t.Error("MaxDemand(nil) != 0")
	}
}

func TestTileOccupancy(t *testing.T) {
	cases := []struct {
		rows, cols, dim int
		want            float64
	}{
		{128, 128, 128, 1.0},               // perfect fit
		{256, 256, 128, 1.0},               // exact multi-tile
		{64, 128, 128, 0.5},                // half rows
		{64, 64, 128, 0.25},                // quarter
		{129, 128, 128, (128.0 + 1) / 256}, // one spill row tile
	}
	for _, tc := range cases {
		got := tileOccupancy(tc.rows, tc.cols, tc.dim).MACUtil
		if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("tileOccupancy(%d,%d,%d) = %f, want %f", tc.rows, tc.cols, tc.dim, got, tc.want)
		}
	}
	if tileOccupancy(0, 4, 4).MACUtil != 0 {
		t.Error("degenerate tile occupancy nonzero")
	}
}

// §VI-B shape: depthwise convolutions map terribly onto 128x128
// arrays (their contraction depth is k*k = 9), so MobileNet's spatial
// utilization must be far below the dense CNNs'.
func TestSpatialUtilizationShape(t *testing.T) {
	c := arch.PaperConfig()
	mean := func(net *nn.Network) float64 {
		return MeanSpatialUtil(SpatialUtilization(net, c))
	}
	mn, rn := mean(nn.MobileNet()), mean(nn.ResNet50())
	if mn >= rn {
		t.Errorf("MobileNet spatial util %f not below ResNet50 %f", mn, rn)
	}
	if mn > 0.5 {
		t.Errorf("MobileNet spatial util %f, want < 0.5 (depthwise headroom)", mn)
	}
	for _, u := range SpatialUtilization(nn.VGG16(), c) {
		if u.MACUtil <= 0 || u.MACUtil > 1 {
			t.Errorf("%s spatial util %f out of range", u.Name, u.MACUtil)
		}
	}
	gnmt := SpatialUtilization(nn.GNMT(), c)
	for _, u := range gnmt {
		if u.Type != nn.FC {
			t.Errorf("GNMT produced non-FC entry %v", u.Type)
		}
	}
	if MeanSpatialUtil(nil) != 0 {
		t.Error("empty mean nonzero")
	}
}
