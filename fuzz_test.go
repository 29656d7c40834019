package aimt

import (
	"fmt"
	"testing"

	"aimt/internal/cluster"
	"aimt/internal/nn"
	"aimt/internal/sched"
	"aimt/internal/serve"
)

// Native fuzz targets. `go test` always replays the seed corpus under
// testdata/fuzz/; `go test -fuzz FuzzCompile` (or FuzzStream) explores
// from there. Both targets accept arbitrary inputs: invalid shapes
// must surface as builder/compiler errors, never panics, and every
// accepted input must produce a consistent compile or an
// invariant-clean simulation.

// fuzzNetwork decodes a byte string into a layer chain: each byte
// appends one layer, its value selecting the type and size. Decoding
// is total — any byte sequence yields a construction attempt.
func fuzzNetwork(name string, inC, inH, inW uint8, spec []byte) (*Network, error) {
	b := NewNetwork(name, int(inC%8)+1, int(inH%32)+1, int(inW%32)+1)
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

// FuzzCompile drives random layer shapes through the network builder
// and the compiler: any input either errors cleanly or compiles to a
// valid table with positive iteration counts and non-negative block
// cycles.
func FuzzCompile(f *testing.F) {
	f.Add(uint8(3), uint8(32), uint8(32), uint8(1), []byte{0, 2, 3})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), []byte{3, 3})
	f.Add(uint8(4), uint8(16), uint8(16), uint8(1), []byte{1, 4, 18})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, inC, inH, inW, batch uint8, spec []byte) {
		net, err := fuzzNetwork("fuzz", inC, inH, inW, spec)
		if err != nil {
			return // invalid shape rejected by the builder: fine
		}
		cfg := Config{
			PEDim:        4,
			NumArrays:    4,
			FreqHz:       1_000_000_000,
			MemBandwidth: 1_000_000_000,
			WeightSRAM:   64 * 16,
			IOSRAM:       1 << 20,
			WeightBytes:  1,
			FillLatency:  2,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fixed config invalid: %v", err)
		}
		cn, err := Compile(net, cfg, int(batch%4)+1)
		if err != nil {
			return // compiler rejection: fine
		}
		if err := cn.Validate(); err != nil {
			t.Fatalf("compiled table fails its own validation: %v", err)
		}
		for _, l := range cn.Layers {
			if l.Iters <= 0 {
				t.Fatalf("layer %s: non-positive Iters %d", l.Name, l.Iters)
			}
			if l.MBCycles < 0 || l.CBCycles < 0 {
				t.Fatalf("layer %s: negative block cycles mb=%d cb=%d", l.Name, l.MBCycles, l.CBCycles)
			}
			if l.MBBlocks < 0 || l.MBBytes < 0 {
				t.Fatalf("layer %s: negative footprint blocks=%d bytes=%d", l.Name, l.MBBlocks, l.MBBytes)
			}
		}
		s := cn.Stats()
		if s.SubLayers <= 0 || s.MBCycles < 0 || s.CBCycles < 0 || s.WeightBytes < 0 {
			t.Fatalf("negative or empty stats: %+v", s)
		}
	})
}

// FuzzTransformerCompile drives random attention shapes — block,
// hidden, head, FFN, sequence and context counts, including the
// degenerate 0/1 cases — through the transformer builder and the
// compiler: any input either errors cleanly or compiles to a valid
// sub-layer table whose attention layers carry positive iteration
// counts and KV-cache-sized footprints.
func FuzzTransformerCompile(f *testing.F) {
	f.Add(uint8(2), uint8(64), uint8(4), uint8(128), uint8(16), uint8(16), uint8(128), uint8(1))
	f.Add(uint8(1), uint8(8), uint8(1), uint8(8), uint8(1), uint8(1), uint8(0), uint8(2))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(12), uint8(3), uint8(24), uint8(1), uint8(200), uint8(32), uint8(3))
	f.Add(uint8(3), uint8(96), uint8(12), uint8(255), uint8(32), uint8(32), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, blocks, hidden, heads, ffn, seq, ctx, vocab, batch uint8) {
		cfg := Config{
			PEDim:        4,
			NumArrays:    4,
			FreqHz:       1_000_000_000,
			MemBandwidth: 1_000_000_000,
			WeightSRAM:   64 * 16,
			IOSRAM:       1 << 20,
			WeightBytes:  1,
			FillLatency:  2,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fixed config invalid: %v", err)
		}
		check := func(net *Network) {
			cn, err := Compile(net, cfg, int(batch%4)+1)
			if err != nil {
				return // compiler rejection: fine
			}
			if err := cn.Validate(); err != nil {
				t.Fatalf("%s: compiled table fails its own validation: %v", net.Name, err)
			}
			for _, l := range cn.Layers {
				if l.Iters <= 0 {
					t.Fatalf("%s layer %s: non-positive Iters %d", net.Name, l.Name, l.Iters)
				}
				if l.MBCycles < 0 || l.CBCycles < 0 || l.MBBlocks < 0 || l.MBBytes < 0 {
					t.Fatalf("%s layer %s: negative cycles or footprint: %+v", net.Name, l.Name, l)
				}
			}
		}

		// Whole-stack path: raw values through the transformer config;
		// invalid shapes (zero dims, Hidden not divisible by Heads,
		// Context < SeqLen) must error, never panic.
		net, err := nn.Transformer(nn.TransformerConfig{
			Name:    "fuzz-tf",
			Blocks:  int(blocks % 4),
			Hidden:  int(hidden),
			Heads:   int(heads % 16),
			FFN:     int(ffn),
			OutProj: int(vocab),
			SeqLen:  int(seq),
			Context: int(ctx),
		})
		if err == nil {
			check(net)
		}

		// Bare-layer path: a single attention layer with unvalidated
		// shape fields exercises the nn validator directly.
		b := NewNetwork("fuzz-attn", int(hidden%64)+1, 1, 1)
		b.Attn("a0", int(hidden%64)+1, int(heads), int(ctx), int(seq))
		if net, err := b.Build(); err == nil {
			check(net)
		}
	})
}

// FuzzStream drives random arrival streams through every scheduler
// with the machine-model invariant checker on: arbitrary request
// sequences, gaps, and deadlines must keep the invariants green and
// finish every network after its arrival.
func FuzzStream(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(0))
	f.Add([]byte{5, 5, 5, 5}, uint8(7))
	f.Add([]byte{255, 0, 128, 64, 32}, uint8(11))
	f.Add([]byte{9}, uint8(12))
	f.Fuzz(func(t *testing.T, picks []byte, schedPick uint8) {
		if len(picks) == 0 {
			return
		}
		if len(picks) > 10 {
			picks = picks[:10]
		}
		cfg := scenarioConfig(t, 8)
		protos := []*Compiled{
			block("comp", cfg, 2, 9, 3, 1),
			block("mem", cfg, 9, 2, 3, 2),
			block("mix", cfg, 5, 5, 2, 1),
		}
		var nets []*Compiled
		var arrivals, deadlines []Cycles
		var at Cycles
		for _, b := range picks {
			nets = append(nets, protos[int(b)%len(protos)])
			at += Cycles(b) * 7
			arrivals = append(arrivals, at)
			deadlines = append(deadlines, at+Cycles(b%5)*100+1)
		}
		policies := allPolicies(cfg, len(nets))
		policies = append(policies, namedPolicy{"EDF(fuzz)", func() Scheduler { return sched.NewEDF(deadlines) }})
		p := policies[int(schedPick)%len(policies)]
		res, err := Run(cfg, nets, p.mk(), RunOptions{
			CheckInvariants: true,
			Arrivals:        arrivals,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for i, fin := range res.NetFinish {
			if fin <= arrivals[i] {
				t.Fatalf("%s: net %d finished at %d, arrival %d", p.name, i, fin, arrivals[i])
			}
		}
		if res.MBCount <= 0 || res.CBCount <= 0 {
			t.Fatalf("%s: empty execution: %d MBs %d CBs", p.name, res.MBCount, res.CBCount)
		}
	})
}

// FuzzAdmission drives random overload scenarios — arbitrary arrival
// patterns, priority mixes, cluster sizes and SLO slacks — through the
// full control plane (admission, preemptive priorities, autoscaling)
// with the machine-model invariant checker on, and asserts the
// admission conservation laws: every request is either routed or shed,
// shed requests only come from the lowest priority band and never
// appear in any chip's completions, and admitted + shed == offered.
func FuzzAdmission(f *testing.F) {
	f.Add([]byte{3, 1, 9}, uint8(1), uint8(1), uint8(4))
	f.Add([]byte{0}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{200, 50, 7, 7, 1}, uint8(2), uint8(2), uint8(11))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, uint8(3), uint8(1), uint8(255))
	f.Fuzz(func(t *testing.T, picks []byte, chipsPick, prioPick, sloPick uint8) {
		if len(picks) == 0 {
			return
		}
		cfg := scenarioConfig(t, 8)
		pick := func(i int) byte { return picks[i%len(picks)] }
		an := NewNetwork("adm-hi", 1, 4, 4)
		an.FC("f1", int(pick(0)%16)+1)
		bn := NewNetwork("adm-lo", 2, 4, 4)
		bn.FC("c1", int(pick(1)%32)+1)
		bn.FC("c2", 4)
		anet, err := an.Build()
		if err != nil {
			return
		}
		bnet, err := bn.Build()
		if err != nil {
			return
		}
		classes := []ServeClass{
			{Name: "hi", Net: anet, Weight: float64(pick(2)%3) + 1,
				Slack: float64(sloPick%6) + 1, Priority: int(prioPick % 3)},
			{Name: "lo", Net: bnet, Weight: float64(pick(3)%4) + 1,
				Slack: float64(sloPick%9) + 1},
		}
		var seed int64
		for _, b := range picks {
			seed = seed*31 + int64(b)
		}
		process := ServePoisson
		if pick(4)%2 == 1 {
			process = ServeBursty
		}
		stream, err := serve.NewStream(cfg, classes, ServeStreamOptions{
			Requests: int(pick(5)%48) + 8,
			MeanGap:  Cycles(pick(6)%200) + 1,
			Process:  process,
			Seed:     seed,
		})
		if err != nil {
			return
		}
		chips := int(chipsPick%4) + 1
		pols := ClusterPolicies()
		pol := pols[int(pick(7))%len(pols)]
		res, err := cluster.Serve(cfg, stream, serveSpec(t, "AI-MT+Prio"), pol.New(), ClusterOptions{
			Chips:           chips,
			CheckInvariants: true,
			Control: ClusterControl{
				Admission: true,
				Autoscale: pick(8)%2 == 1,
			},
		})
		if err != nil {
			t.Fatalf("%s x%d: %v", pol.Name, chips, err)
		}
		offered := len(stream.Nets)
		minPrio := stream.ClassPriority[0]
		for _, p := range stream.ClassPriority[1:] {
			if p < minPrio {
				minPrio = p
			}
		}
		perChip := make([]int, chips)
		shed := 0
		for i, c := range res.Assignment {
			if res.Shed[i] != (c == -1) {
				t.Fatalf("request %d: shed=%v but chip %d", i, res.Shed[i], c)
			}
			if res.Shed[i] {
				shed++
				if p := stream.ClassPriority[stream.ClassOf[i]]; p != minPrio {
					t.Fatalf("request %d of priority %d shed; lowest band is %d", i, p, minPrio)
				}
				continue
			}
			if c < 0 || c >= chips {
				t.Fatalf("request %d on invalid chip %d of %d", i, c, chips)
			}
			perChip[c]++
		}
		if shed != res.ShedCount {
			t.Fatalf("shed mask counts %d, result says %d", shed, res.ShedCount)
		}
		admitted := 0
		for c, cr := range res.ChipResults {
			n := 0
			if cr != nil {
				n = len(cr.NetFinish)
			}
			if n != perChip[c] {
				t.Fatalf("chip %d completed %d, routed %d", c, n, perChip[c])
			}
			admitted += n
		}
		if admitted+res.ShedCount != offered {
			t.Fatalf("admitted %d + shed %d != offered %d", admitted, res.ShedCount, offered)
		}
		if got := int(res.Agg.Latency.Count()) + res.Agg.Shed; got != offered {
			t.Fatalf("report served %d + shed %d != offered %d", res.Agg.Latency.Count(), res.Agg.Shed, offered)
		}
	})
}
