package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/sim"
)

// rrReference is RR with its original pick loop, which visits every
// instance of the run and scans the candidates for each: the
// reference the one-pass RR.PickMB must reproduce.
type rrReference struct {
	base
	next int
}

func (*rrReference) Name() string { return "RR" }

func (r *rrReference) PickMB(v *sim.View) (sim.MBRef, bool) {
	c := r.candidates(v)
	if len(c) == 0 {
		return sim.MBRef{}, false
	}
	n := v.NumNets()
	for off := 0; off < n; off++ {
		net := (r.next + off) % n
		for _, m := range c {
			if m.Net == net {
				r.next = (net + 1) % n
				r.enqueue(m)
				return m, true
			}
		}
	}
	r.enqueue(c[0])
	return c[0], true
}

// TestRRMatchesReferenceOnStream runs RR over a 2,000-request open-loop
// stream drawn from a few small chain networks (a queue builds, so
// picks see many nets in flight and the rotation pointer wraps often)
// and requires the one-pass pick to produce exactly the reference
// loop's Result.
func TestRRMatchesReferenceOnStream(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(11))
	var tables []*compiler.CompiledNetwork
	var mean float64
	for i := 0; i < 4; i++ {
		cn := &compiler.CompiledNetwork{Name: string(rune('a' + i)), Batch: 1}
		for l := 0; l < 1+rng.Intn(4); l++ {
			blocks := 1 + rng.Intn(4)
			cl := compiler.CompiledLayer{
				Name:     cn.Name + string(rune('0'+l)),
				MBCycles: arch.Cycles(1 + rng.Intn(40)),
				CBCycles: arch.Cycles(1 + rng.Intn(40)),
				Iters:    1 + rng.Intn(6),
				MBBlocks: blocks,
				MBBytes:  cfg.BlockBytes() * arch.Bytes(blocks),
			}
			if l > 0 {
				cl.Deps = []int{l - 1}
				cn.Layers[l-1].Posts = []int{l}
			}
			cn.Layers = append(cn.Layers, cl)
		}
		st := cn.Stats()
		mean += float64(max(st.CBCycles, st.MBCycles)) / 4
		tables = append(tables, cn)
	}
	const requests = 2000
	nets := make([]*compiler.CompiledNetwork, requests)
	arrivals := make([]arch.Cycles, requests)
	var at float64
	for i := range nets {
		nets[i] = tables[rng.Intn(len(tables))]
		at += rng.ExpFloat64() * mean / 0.9
		arrivals[i] = arch.Cycles(at)
	}
	opts := sim.Options{Arrivals: arrivals}
	want, err := sim.Run(cfg, nets, &rrReference{base: base{depth: 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(cfg, nets, NewRR(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("one-pass RR diverged from the reference loop: makespan %d vs %d, MBs %d vs %d",
			got.Makespan, want.Makespan, got.MBCount, want.MBCount)
	}
	// The stream must actually queue, or the rotation never wraps
	// past more than a couple of nets.
	var wait arch.Cycles
	for i := range nets {
		wait += got.NetFinish[i] - got.NetArrive[i]
	}
	t.Logf("%d requests, makespan %d, mean latency %d cycles", requests, got.Makespan, wait/requests)
}
