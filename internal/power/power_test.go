package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"aimt/internal/arch"
)

// The model must reproduce the paper's Table III anchors exactly.
func TestAnchorsReproduceTable3(t *testing.T) {
	cases := []struct {
		size    arch.Bytes
		powerMW float64
		areaMM2 float64
	}{
		{18 * arch.MiB, 3575.872, 119.399},
		{1 * arch.MiB, 170.408, 3.843},
		{3 * arch.KiB, 2.897 / 5, 0.0592 / 5},
		{64, 0.0172, 0.000261},
	}
	for _, tc := range cases {
		if got := SRAMPowerMW(tc.size); math.Abs(got-tc.powerMW)/tc.powerMW > 1e-6 {
			t.Errorf("power(%d) = %f, want %f", tc.size, got, tc.powerMW)
		}
		if got := SRAMAreaMM2(tc.size); math.Abs(got-tc.areaMM2)/tc.areaMM2 > 1e-6 {
			t.Errorf("area(%d) = %f, want %f", tc.size, got, tc.areaMM2)
		}
	}
}

func TestModelMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := arch.Bytes(a)+1, arch.Bytes(b)+1
		if x > y {
			x, y = y, x
		}
		return SRAMPowerMW(x) <= SRAMPowerMW(y)+1e-12 &&
			SRAMAreaMM2(x) <= SRAMAreaMM2(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelExtrapolates(t *testing.T) {
	if SRAMPowerMW(64*arch.MiB) <= SRAMPowerMW(18*arch.MiB) {
		t.Error("no extrapolation above the largest anchor")
	}
	if SRAMPowerMW(16) <= 0 || SRAMPowerMW(16) >= SRAMPowerMW(64) {
		t.Error("extrapolation below the smallest anchor broken")
	}
	if SRAMPowerMW(0) != 0 {
		t.Error("zero size has nonzero power")
	}
}

func TestTable3Rows(t *testing.T) {
	cfg := arch.PaperConfig()
	rows := Table3(cfg, 5)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	if rows[0].Name != "Input/Output buffer" || rows[0].Size != 18*arch.MiB {
		t.Errorf("row 0 = %+v", rows[0])
	}
	// The scheduling-table row scales with the network count.
	if rows[2].Count != 5 {
		t.Errorf("scheduling tables count = %d, want 5", rows[2].Count)
	}
	if math.Abs(rows[2].PowerMW-2.897)/2.897 > 1e-6 {
		t.Errorf("scheduling tables power = %f, want 2.897", rows[2].PowerMW)
	}
	ten := Table3(cfg, 10)
	if ten[2].PowerMW <= rows[2].PowerMW {
		t.Error("scheduling-table power does not scale with networks")
	}
}

// The paper's claim: AI-MT's structures are a negligible fraction of
// on-chip memory power.
func TestOverheadNegligible(t *testing.T) {
	cfg := arch.PaperConfig()
	rows := Table3(cfg, 5)
	if f := OverheadFraction(rows); f <= 0 || f > 0.01 {
		t.Errorf("overhead fraction = %f, want (0, 1%%]", f)
	}
	if OverheadFraction(nil) != 0 {
		t.Error("empty rows overhead != 0")
	}
}

func TestRowString(t *testing.T) {
	r := Row{Name: "Weight buffer", Size: arch.MiB, Count: 1, PowerMW: 170.4, AreaMM2: 3.84}
	s := r.String()
	for _, want := range []string{"Weight buffer", "1 MiB", "mW", "mm2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Row.String() = %q missing %q", s, want)
		}
	}
	multi := Row{Name: "Tables", Size: 3 * arch.KiB, Count: 5}
	if !strings.Contains(multi.String(), "* 5") {
		t.Errorf("multi-instance row %q missing count", multi.String())
	}
}
