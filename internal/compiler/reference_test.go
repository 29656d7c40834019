package compiler

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"aimt/internal/arch"
	"aimt/internal/nn"
)

// compileReference is the straightforward lowering Compile must match
// exactly: a fresh dedup set and dep list per layer, and Posts grown
// by append.
func compileReference(net *nn.Network, cfg arch.Config, batch int) (*CompiledNetwork, error) {
	if batch <= 0 {
		return nil, ErrBadBatch
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}

	weightIdx := make([]int, len(net.Layers)) // -1 for fused layers
	for i := range weightIdx {
		weightIdx[i] = -1
	}
	// effDeps[i] = set of compiled indices feeding original layer i.
	effDeps := make([][]int, len(net.Layers))

	cn := &CompiledNetwork{
		Name:         net.Name,
		Batch:        batch,
		HostInBytes:  arch.Bytes(net.InputBytes(cfg.WeightBytes) * int64(batch)),
		HostOutBytes: arch.Bytes(net.OutputBytes(cfg.WeightBytes) * int64(batch)),
	}

	for i, l := range net.Layers {
		var deps []int
		seen := map[int]bool{}
		for _, in := range l.Inputs {
			if w := weightIdx[in]; w >= 0 {
				if !seen[w] {
					seen[w] = true
					deps = append(deps, w)
				}
			} else {
				for _, d := range effDeps[in] {
					if !seen[d] {
						seen[d] = true
						deps = append(deps, d)
					}
				}
			}
		}
		if !l.Type.HasWeights() {
			effDeps[i] = deps
			continue
		}
		cl, err := estimate(&l, cfg, batch)
		if err != nil {
			return nil, fmt.Errorf("compiler: %s/%s: %w", net.Name, l.Name, err)
		}
		cl.Deps = deps
		weightIdx[i] = len(cn.Layers)
		effDeps[i] = []int{weightIdx[i]}
		cn.Layers = append(cn.Layers, cl)
	}
	for i, l := range cn.Layers {
		for _, d := range l.Deps {
			cn.Layers[d].Posts = append(cn.Layers[d].Posts, i)
		}
	}
	if len(cn.Layers) == 0 {
		return nil, fmt.Errorf("compiler: %s has no weight layers", net.Name)
	}
	return cn, nil
}

// zooNames lists every network nn.ByName builds, once each.
var zooNames = []string{"RN34", "RN50", "VGG16", "MN", "GNMT", "BERT", "GPT2", "GPT2-decode"}

// fuzzSeed is one FuzzCompile input: the input shape, the batch and
// the layer spec that the root package's fuzzNetwork decodes.
type fuzzSeed struct {
	inC, inH, inW, batch uint8
	spec                 []byte
}

// fuzzSeedNetwork decodes a FuzzCompile input the way the root
// package's fuzzNetwork does: each spec byte appends one layer.
func fuzzSeedNetwork(s fuzzSeed) (*nn.Network, error) {
	b := nn.NewBuilder("fuzz", int(s.inC%8)+1, int(s.inH%32)+1, int(s.inW%32)+1)
	spec := s.spec
	if len(spec) > 16 {
		spec = spec[:16]
	}
	for i, op := range spec {
		switch op % 5 {
		case 0:
			b.Conv(fmt.Sprintf("c%d", i), int(op/5)%8+1, 3, 1, 1)
		case 1:
			b.DWConv(fmt.Sprintf("d%d", i), 3, 1, 1)
		case 2:
			b.Pool(fmt.Sprintf("p%d", i), 2, 2, 0)
		case 3:
			b.FC(fmt.Sprintf("f%d", i), int(op/5)%32+1)
		case 4:
			b.GlobalPool(fmt.Sprintf("g%d", i))
		}
	}
	return b.Build()
}

// fuzzSeeds returns FuzzCompile's seed corpus: the inputs its f.Add
// calls register and the files under testdata/fuzz/FuzzCompile.
func fuzzSeeds(t *testing.T) []fuzzSeed {
	t.Helper()
	seeds := []fuzzSeed{
		{3, 32, 32, 1, []byte{0, 2, 3}},
		{1, 1, 1, 2, []byte{3, 3}},
		{4, 16, 16, 1, []byte{1, 4, 18}},
		{0, 0, 0, 0, []byte{}},
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "fuzz", "FuzzCompile", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no FuzzCompile corpus files")
	}
	for _, name := range files {
		s, err := readFuzzSeed(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// readFuzzSeed parses one "go test fuzz v1" corpus file of FuzzCompile's
// signature: four byte lines and one []byte line.
func readFuzzSeed(name string) (fuzzSeed, error) {
	f, err := os.Open(name)
	if err != nil {
		return fuzzSeed{}, err
	}
	defer f.Close()
	var bytes []byte
	var spec []byte
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "go test fuzz v1":
		case strings.HasPrefix(line, "byte(") && strings.HasSuffix(line, ")"):
			s, err := strconv.Unquote(line[len("byte(") : len(line)-1])
			if err != nil {
				return fuzzSeed{}, err
			}
			r, _ := utf8.DecodeRuneInString(s)
			bytes = append(bytes, byte(r))
		case strings.HasPrefix(line, "[]byte(") && strings.HasSuffix(line, ")"):
			s, err := strconv.Unquote(line[len("[]byte(") : len(line)-1])
			if err != nil {
				return fuzzSeed{}, err
			}
			spec = []byte(s)
		default:
			return fuzzSeed{}, fmt.Errorf("unexpected line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return fuzzSeed{}, err
	}
	if len(bytes) != 4 || spec == nil {
		return fuzzSeed{}, fmt.Errorf("want 4 bytes and a []byte, got %d bytes", len(bytes))
	}
	return fuzzSeed{bytes[0], bytes[1], bytes[2], bytes[3], spec}, nil
}

// fuzzConfig is FuzzCompile's fixed small machine.
func fuzzConfig() arch.Config {
	return arch.Config{
		PEDim:        4,
		NumArrays:    4,
		FreqHz:       1_000_000_000,
		MemBandwidth: 1_000_000_000,
		WeightSRAM:   64 * 16,
		IOSRAM:       1 << 20,
		WeightBytes:  1,
		FillLatency:  2,
	}
}

// assertMatchesReference compiles net both ways and requires equal
// tables, nil against empty lists included, or equal errors.
func assertMatchesReference(t *testing.T, net *nn.Network, cfg arch.Config, batch int) {
	t.Helper()
	got, gotErr := Compile(net, cfg, batch)
	want, wantErr := compileReference(net, cfg, batch)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s batch %d: error %v, reference %v", net.Name, batch, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s batch %d: table differs from the reference", net.Name, batch)
		for i := range want.Layers {
			if i < len(got.Layers) && !reflect.DeepEqual(got.Layers[i], want.Layers[i]) {
				t.Errorf("  layer %d: %#v\n  reference %#v", i, got.Layers[i], want.Layers[i])
				break
			}
		}
	}
}

// TestCompileMatchesReference pins Compile's tables to the reference
// lowering on every zoo network at three batch sizes on both machine
// presets, and on FuzzCompile's seed corpus.
func TestCompileMatchesReference(t *testing.T) {
	cfgs := map[string]arch.Config{"paper": arch.PaperConfig(), "tpuv2": arch.TPUv2Config()}
	for _, name := range zooNames {
		net, err := nn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for cname, cfg := range cfgs {
			for _, batch := range []int{1, 4, 32} {
				t.Run(fmt.Sprintf("%s/%s/b%d", name, cname, batch), func(t *testing.T) {
					assertMatchesReference(t, net, cfg, batch)
				})
			}
		}
	}
	for i, s := range fuzzSeeds(t) {
		net, err := fuzzSeedNetwork(s)
		if err != nil {
			continue // rejected by the builder before any compile
		}
		t.Run(fmt.Sprintf("fuzz-seed-%d", i), func(t *testing.T) {
			assertMatchesReference(t, net, fuzzConfig(), int(s.batch%4)+1)
			assertMatchesReference(t, net, arch.PaperConfig(), 4)
		})
	}
}

// TestListsDoNotAlias appends to one layer's Deps, Posts and source
// Inputs at a time and requires every other layer's lists unchanged:
// the lists share slabs, so each must be a cap-limited window.
func TestListsDoNotAlias(t *testing.T) {
	for _, name := range zooNames {
		net, err := nn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cn := compile(t, net, 4)
		deps := func(i int) []int { return cn.Layers[i].Deps }
		posts := func(i int) []int { return cn.Layers[i].Posts }
		inputs := func(i int) []int { return net.Layers[i].Inputs }
		for i := range cn.Layers {
			cn.Layers[i].Deps = appendChecked(t, name+" Deps", len(cn.Layers), deps, i)
			cn.Layers[i].Posts = appendChecked(t, name+" Posts", len(cn.Layers), posts, i)
		}
		for i := range net.Layers {
			net.Layers[i].Inputs = appendChecked(t, name+" Inputs", len(net.Layers), inputs, i)
		}
	}
}

// appendChecked returns list(i) with -1 appended, and fails t if the
// append changed any other of the n lists.
func appendChecked(t *testing.T, what string, n int, list func(int) []int, i int) []int {
	t.Helper()
	before := make([][]int, n)
	for j := range before {
		before[j] = append([]int(nil), list(j)...)
	}
	grown := append(list(i), -1)
	for j := range before {
		if j != i && !reflect.DeepEqual(append([]int(nil), list(j)...), before[j]) {
			t.Fatalf("%s: appending to layer %d changed layer %d: %v, was %v", what, i, j, list(j), before[j])
		}
	}
	return grown
}
