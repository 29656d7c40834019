package aimt

import (
	"fmt"
	"reflect"
	"testing"

	"aimt/internal/cluster"
	"aimt/internal/serve"
)

// TestClusterN1BitIdentical is the serving planner's correctness
// anchor: at one chip, unrouted and under every routing policy, for
// every registered scheduler, the planner must produce exactly the
// schedule of a direct engine run over the stream — the same raw
// simulation result (makespan, per-request finish cycles, block
// counts, busy totals) and the same report as serve.BuildReport over
// it, bit for bit, with zero imbalance. Any divergence means the
// planner or the dispatcher perturbed the stream it was supposed to
// pass through untouched.
func TestClusterN1BitIdentical(t *testing.T) {
	cfg := PaperConfig()
	classes := DefaultServingClasses()
	gaps, err := ServeGaps(cfg, classes, 0.6, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	var routed []ClusterRoute
	for _, p := range ClusterPolicies() {
		routed = append(routed, ClusterRoute{Policy: p, Chips: 1})
	}
	specs := registrySpecs()
	for _, process := range []serve.Process{ServePoisson, ServeBursty} {
		sopts := ServeStreamOptions{Requests: 150, Process: process, Seed: 13}
		for _, routes := range [][]ClusterRoute{nil, routed} {
			points, err := ServeSweep(cfg, classes, specs, ServeSweepOptions{Stream: sopts, Gaps: gaps, Routes: routes})
			if err != nil {
				t.Fatalf("%s: %v", process, err)
			}
			per := max(len(routes), 1)
			for gi, pt := range points {
				sopts.MeanGap = gaps[gi]
				stream, err := serve.NewStream(cfg, classes, sopts)
				if err != nil {
					t.Fatal(err)
				}
				if len(pt.Results) != len(specs)*per {
					t.Fatalf("%s gap %d: %d results, want %d", process, gaps[gi], len(pt.Results), len(specs)*per)
				}
				for si, spec := range specs {
					// The reference: the engine over the stream, then the
					// report fold, with the spec's name as the label.
					ref, err := Run(cfg, stream.Nets, spec.New(cfg, stream),
						RunOptions{Arrivals: stream.Arrivals, ChainAfter: stream.ChainAfter})
					if err != nil {
						t.Fatalf("%s/%s reference: %v", process, spec.Name, err)
					}
					refRep := serve.BuildReport(stream, ref)
					refRep.Scheduler = spec.Name
					for k := 0; k < per; k++ {
						r := pt.Results[si*per+k]
						cell := fmt.Sprintf("%s/gap %d/%s/%q", process, gaps[gi], spec.Name, r.Policy)
						if r.Scheduler != spec.Name || r.Chips != 1 || len(r.ChipResults) != 1 {
							t.Fatalf("%s: scheduler %s over %d chips with %d chip results", cell, r.Scheduler, r.Chips, len(r.ChipResults))
						}
						if routes != nil && r.Policy != routes[k].Policy.Name {
							t.Fatalf("%s: policy %q, want %q", cell, r.Policy, routes[k].Policy.Name)
						}
						got := r.ChipResults[0]
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("%s: chip-0 result differs from the single-engine run\n"+
								"makespan %d vs %d, MBs %d vs %d, CBs %d vs %d, splits %d vs %d",
								cell, got.Makespan, ref.Makespan, got.MBCount, ref.MBCount,
								got.CBCount, ref.CBCount, got.Splits, ref.Splits)
						}
						if !reflect.DeepEqual(r.Agg, refRep) {
							t.Errorf("%s: aggregate report differs from the single-engine report\n"+
								"p50 %d vs %d, p99 %d vs %d, misses %d vs %d, throughput %v vs %v, PE util %v vs %v",
								cell, r.Agg.P50, refRep.P50, r.Agg.P99, refRep.P99,
								r.Agg.Misses, refRep.Misses, r.Agg.Throughput, refRep.Throughput,
								r.Agg.PEUtil, refRep.PEUtil)
						}
						if r.Imbalance != 0 {
							t.Errorf("%s: one-chip imbalance %v, want 0", cell, r.Imbalance)
						}
					}
				}
			}
		}
	}
}

// TestClusterScaleThroughput pins the scaling claim behind the golden:
// at the clusterscale experiment's fixed offered load, every routing
// policy's aggregate throughput grows substantially from 1 chip to 8,
// and the 8-chip cluster stops missing deadlines that saturate a
// single chip.
func TestClusterScaleThroughput(t *testing.T) {
	pts, err := clusterScaleData(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]map[int]*cluster.Result{}
	for _, p := range pts {
		if byPolicy[p.Policy] == nil {
			byPolicy[p.Policy] = map[int]*cluster.Result{}
		}
		byPolicy[p.Policy][p.Chips] = p
	}
	for policy, cells := range byPolicy {
		one, eight := cells[1], cells[8]
		if one.Agg == nil || eight.Agg == nil {
			t.Fatalf("%s: missing 1- or 8-chip cell", policy)
		}
		if eight.Agg.Throughput < 1.5*one.Agg.Throughput {
			t.Errorf("%s: 8-chip throughput %.3f req/Mcyc is not >= 1.5x the 1-chip %.3f",
				policy, eight.Agg.Throughput, one.Agg.Throughput)
		}
		if eight.Agg.MissRate >= one.Agg.MissRate && one.Agg.MissRate > 0 {
			t.Errorf("%s: 8-chip miss rate %.3f did not improve on 1-chip %.3f",
				policy, eight.Agg.MissRate, one.Agg.MissRate)
		}
		if eight.Agg.P99 > one.Agg.P99 {
			t.Errorf("%s: 8-chip p99 %d above 1-chip p99 %d", policy, eight.Agg.P99, one.Agg.P99)
		}
	}
}
