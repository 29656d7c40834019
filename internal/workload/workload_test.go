package workload

import (
	"strings"
	"testing"

	"aimt/internal/arch"
)

func TestPaperMixesShape(t *testing.T) {
	mixes := PaperMixes()
	if len(mixes) != 8 {
		t.Fatalf("mixes = %d, want 8", len(mixes))
	}
	gnmt, vgg := 0, 0
	for _, m := range mixes {
		if len(m.Compute) == 0 || len(m.Memory) != 1 {
			t.Errorf("%s: compute=%v memory=%v", m.Name, m.Compute, m.Memory)
		}
		switch m.Memory[0] {
		case "GNMT":
			gnmt++
		case "VGG16":
			vgg++
		}
	}
	if gnmt != 4 || vgg != 4 {
		t.Errorf("memory sides = %d GNMT + %d VGG16, want 4+4", gnmt, vgg)
	}
}

func TestGNMTMixes(t *testing.T) {
	for _, m := range GNMTMixes() {
		if m.Memory[0] != "GNMT" {
			t.Errorf("%s in GNMT mixes", m.Name)
		}
	}
	if len(GNMTMixes()) != 4 {
		t.Errorf("GNMT mixes = %d, want 4", len(GNMTMixes()))
	}
}

func TestBuildBalancesLoads(t *testing.T) {
	c := arch.PaperConfig()
	mix, err := Build(c, Spec{Name: "t", Compute: []string{"RN34"}, Memory: []string{"GNMT"}},
		BuildOptions{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mix.Replication < 1 {
		t.Fatalf("replication = %d", mix.Replication)
	}
	// The memory side's total MB cycles must be within one instance of
	// the compute side's CB cycles (the paper's balancing).
	var compCB, memMB, oneMB arch.Cycles
	for i, cn := range mix.Nets {
		s := cn.Stats()
		if mix.MemHeavy[i] {
			memMB += s.MBCycles
			oneMB = s.MBCycles
		} else {
			compCB += s.CBCycles
		}
	}
	if diff := compCB - memMB; diff > oneMB || diff < -oneMB {
		t.Errorf("imbalance: compute CB %d vs memory MB %d (one instance = %d)", compCB, memMB, oneMB)
	}
}

func TestBuildAnnotatesName(t *testing.T) {
	c := arch.PaperConfig()
	mix, err := Build(c, PaperMixes()[0], BuildOptions{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mix.Replication > 1 && !strings.Contains(mix.Name, "x") {
		t.Errorf("name %q missing replication annotation", mix.Name)
	}
}

func TestBuildIterations(t *testing.T) {
	c := arch.PaperConfig()
	one, err := Build(c, PaperMixes()[0], BuildOptions{Batch: 1, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	three, err := Build(c, PaperMixes()[0], BuildOptions{Batch: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(three.Nets) != 3*len(one.Nets) {
		t.Errorf("iterated nets = %d, want %d", len(three.Nets), 3*len(one.Nets))
	}
	if len(three.MemHeavy) != len(three.Nets) {
		t.Error("MemHeavy length mismatch")
	}
}

func TestBuildMaxReplicationCap(t *testing.T) {
	c := arch.PaperConfig()
	mix, err := Build(c, Spec{Name: "t", Compute: []string{"RN34"}, Memory: []string{"GNMT"}},
		BuildOptions{Batch: 32, MaxReplication: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mix.Replication > 3 {
		t.Errorf("replication = %d, cap 3", mix.Replication)
	}
}

func TestBuildRejectsUnknownNetwork(t *testing.T) {
	c := arch.PaperConfig()
	if _, err := Build(c, Spec{Name: "t", Compute: []string{"nope"}, Memory: []string{"GNMT"}}, BuildOptions{}); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := Build(c, Spec{Name: "t", Compute: nil, Memory: []string{"GNMT"}}, BuildOptions{}); err == nil {
		t.Error("empty compute side accepted")
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("RN34,RN50/GNMT")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Compute) != 2 || s.Compute[1] != "RN50" || len(s.Memory) != 1 {
		t.Errorf("parsed %+v", s)
	}
	for _, bad := range []string{"RN34", "RN34/GNMT/extra", "/GNMT", "RN34/", " , / ,"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", bad)
		}
	}
}

func TestMemHeavyFlags(t *testing.T) {
	c := arch.PaperConfig()
	mix, err := Build(c, PaperMixes()[3], BuildOptions{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, cn := range mix.Nets {
		isGNMT := cn.Name == "GNMT"
		if mix.MemHeavy[i] != isGNMT {
			t.Errorf("net %d (%s): MemHeavy = %v", i, cn.Name, mix.MemHeavy[i])
		}
	}
}
