package isa

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/nn"
)

func lowerVGG(t *testing.T, batch int) (*Program, *compiler.CompiledNetwork) {
	t.Helper()
	cfg := arch.PaperConfig()
	cn, err := compiler.Compile(nn.VGG16(), cfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	return Lower(cn), cn
}

func TestLowerShape(t *testing.T) {
	p, cn := lowerVGG(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	subs := cn.Stats().SubLayers
	if s.PerOp[OpReadWeights] != subs || s.PerOp[OpMatMul] != subs {
		t.Errorf("fetch/matmul counts = %d/%d, want %d sub-layers each",
			s.PerOp[OpReadWeights], s.PerOp[OpMatMul], subs)
	}
	if s.PerOp[OpSync] != len(cn.Layers) || s.PerOp[OpActivate] != len(cn.Layers) {
		t.Errorf("per-layer ops = %d/%d, want %d", s.PerOp[OpSync], s.PerOp[OpActivate], len(cn.Layers))
	}
	if s.PerOp[OpReadHost] != 1 || s.PerOp[OpWriteHost] != 1 {
		t.Errorf("host ops = %d/%d", s.PerOp[OpReadHost], s.PerOp[OpWriteHost])
	}
	// The program's estimated occupancies equal the scheduling table's.
	cs := cn.Stats()
	if s.MemCycles != cs.MBCycles || s.PECycles != cs.CBCycles {
		t.Errorf("program cycles %d/%d != table %d/%d", s.MemCycles, s.PECycles, cs.MBCycles, cs.CBCycles)
	}
	if s.WeightBytes != cs.WeightBytes {
		t.Errorf("program weights %d != table %d", s.WeightBytes, cs.WeightBytes)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p, _ := lowerVGG(t, 4)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.Batch != p.Batch {
		t.Errorf("header = %q/%d, want %q/%d", got.Name, got.Batch, p.Name, p.Batch)
	}
	if len(got.Instructions) != len(p.Instructions) {
		t.Fatalf("count = %d, want %d", len(got.Instructions), len(p.Instructions))
	}
	for i := range p.Instructions {
		if got.Instructions[i] != p.Instructions[i] {
			t.Fatalf("instruction %d = %+v, want %+v", i, got.Instructions[i], p.Instructions[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	p, _ := lowerVGG(t, 1)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := Decode(bytes.NewReader([]byte("NOPE"))); !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) {
		t.Errorf("bad magic: %v", err)
	}
	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("corrupt magic: %v", err)
	}
	ver := append([]byte(nil), full...)
	ver[4] = 99
	if _, err := Decode(bytes.NewReader(ver)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	trunc := full[:len(full)-5]
	if _, err := Decode(bytes.NewReader(trunc)); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	// Corrupt an opcode in the first record (header is 4+2+2+2+4 +
	// nameLen bytes).
	nameLen := int(full[8]) | int(full[9])<<8
	opOff := 14 + nameLen
	op := append([]byte(nil), full...)
	op[opOff] = 0xEE
	if _, err := Decode(bytes.NewReader(op)); !errors.Is(err, ErrBadOpcode) {
		t.Errorf("bad opcode: %v", err)
	}
}

func TestDisassemble(t *testing.T) {
	p, _ := lowerVGG(t, 1)
	var buf bytes.Buffer
	if err := p.Disassemble(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"READ_HOST", "READ_WEIGHTS", "MATMUL", "ACTIVATE", "SYNC", "WRITE_HOST", "program VGG16"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines != len(p.Instructions)+1 {
		t.Errorf("listing lines = %d, want %d", lines, len(p.Instructions)+1)
	}
}

func TestValidateCatchesReorderedProgram(t *testing.T) {
	p, _ := lowerVGG(t, 1)
	// Swap a READ_WEIGHTS/MATMUL pair so the matmul comes first.
	for i := 0; i < len(p.Instructions)-1; i++ {
		if p.Instructions[i].Op == OpReadWeights && p.Instructions[i+1].Op == OpMatMul {
			p.Instructions[i], p.Instructions[i+1] = p.Instructions[i+1], p.Instructions[i]
			break
		}
	}
	if err := p.Validate(); err == nil {
		t.Error("reordered program validated")
	}
}

func TestOpcodeString(t *testing.T) {
	if OpMatMul.String() != "MATMUL" || Opcode(200).String() != "Opcode(200)" {
		t.Error("opcode strings wrong")
	}
}

// Property: arbitrary instruction streams survive an encode/decode
// round trip bit-exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(name string, batch uint8, ops []byte) bool {
		p := &Program{Name: name, Batch: int(batch)}
		for _, b := range ops {
			p.emit(Instruction{
				Op:    Opcode(b%uint8(opMax)) + 1,
				Layer: uint16(b) * 3,
				Iter:  uint32(b) * 7,
				Arg0:  uint64(b) * 11,
				Arg1:  uint64(b) * 13,
			})
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if got.Name != p.Name || got.Batch != p.Batch || len(got.Instructions) != len(p.Instructions) {
			return false
		}
		for i := range p.Instructions {
			if got.Instructions[i] != p.Instructions[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A chain network's scheduling table survives lowering, binary
// encoding, decoding, and reconstruction — and simulates identically.
func TestRoundTripToSimulator(t *testing.T) {
	cfg := arch.PaperConfig()
	for _, name := range []string{"VGG16", "GNMT", "MN"} {
		net, err := nn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := compiler.Compile(net, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Lower(orig).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		prog, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		back, err := prog.ToCompiledNetwork(cfg.BlockBytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(back.Layers) != len(orig.Layers) {
			t.Fatalf("%s: %d layers, want %d", name, len(back.Layers), len(orig.Layers))
		}
		for i := range orig.Layers {
			o, b := orig.Layers[i], back.Layers[i]
			if o.MBCycles != b.MBCycles || o.CBCycles != b.CBCycles ||
				o.Iters != b.Iters || o.MBBlocks != b.MBBlocks || o.MBBytes != b.MBBytes {
				t.Fatalf("%s layer %d: %+v != %+v", name, i, b, o)
			}
		}
		so, sb := orig.Stats(), back.Stats()
		if so != sb {
			t.Errorf("%s: stats %+v != %+v", name, sb, so)
		}
		if back.HostInBytes != orig.HostInBytes || back.HostOutBytes != orig.HostOutBytes {
			t.Errorf("%s: host bytes changed", name)
		}
	}
}

func TestToCompiledNetworkRejects(t *testing.T) {
	p, _ := lowerVGG(t, 1)
	if _, err := p.ToCompiledNetwork(0); err == nil {
		t.Error("zero block size accepted")
	}
	bad := &Program{Name: "x", Batch: 1}
	if _, err := bad.ToCompiledNetwork(16); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestLowerAllZooPrograms(t *testing.T) {
	cfg := arch.PaperConfig()
	for name, net := range nn.Zoo() {
		cn, err := compiler.Compile(net, cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := Lower(cn)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
