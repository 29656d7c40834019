package aimt

import (
	"reflect"
	"testing"

	"aimt/internal/cluster"
	"aimt/internal/serve"
)

// TestClusterN1BitIdentical is the cluster model's correctness anchor:
// a one-chip cluster, under every routing policy and every registered
// scheduler, must produce exactly the schedule of the existing
// single-engine serve path — the same raw simulation result (makespan,
// per-request finish cycles, block counts, busy totals) and the same
// report, bit for bit. Any divergence means the dispatcher perturbed
// the stream it was supposed to pass through untouched.
func TestClusterN1BitIdentical(t *testing.T) {
	cfg := PaperConfig()
	classes := DefaultServingClasses()
	for _, process := range []serve.Process{ServePoisson, ServeBursty} {
		stream, err := serve.NewStream(cfg, classes, ServeStreamOptions{
			Requests: 150,
			Process:  process,
			Seed:     13,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range registrySpecs() {
			// The single-engine reference: the exact call serve.Serve
			// makes.
			ref, err := Run(cfg, stream.Nets, spec.New(cfg, stream), RunOptions{Arrivals: stream.Arrivals})
			if err != nil {
				t.Fatalf("%s/%s reference: %v", process, spec.Name, err)
			}
			refRep, err := serve.Serve(cfg, stream, spec.New(cfg, stream), RunOptions{})
			if err != nil {
				t.Fatalf("%s/%s reference report: %v", process, spec.Name, err)
			}
			for _, pspec := range ClusterPolicies() {
				cres, err := cluster.Serve(cfg, stream, spec, pspec.New(), ClusterOptions{Chips: 1})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", process, spec.Name, pspec.Name, err)
				}
				got := cres.ChipResults[0]
				if got == nil {
					t.Fatalf("%s/%s/%s: one-chip cluster produced no chip result", process, spec.Name, pspec.Name)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s/%s/%s: chip-0 result differs from the single-engine run\n"+
						"makespan %d vs %d, MBs %d vs %d, CBs %d vs %d, splits %d vs %d",
						process, spec.Name, pspec.Name,
						got.Makespan, ref.Makespan, got.MBCount, ref.MBCount,
						got.CBCount, ref.CBCount, got.Splits, ref.Splits)
				}
				// The aggregate report must match the serve-path report
				// too; only the scheduler label may differ (the cluster
				// stamps the spec name, the engine the scheduler's own).
				agg := *cres.Agg
				agg.Scheduler = refRep.Scheduler
				if !reflect.DeepEqual(&agg, refRep) {
					t.Errorf("%s/%s/%s: aggregate report differs from the single-engine report\n"+
						"p50 %d vs %d, p99 %d vs %d, misses %d vs %d, throughput %v vs %v, PE util %v vs %v",
						process, spec.Name, pspec.Name,
						agg.P50, refRep.P50, agg.P99, refRep.P99,
						agg.Misses, refRep.Misses, agg.Throughput, refRep.Throughput,
						agg.PEUtil, refRep.PEUtil)
				}
				if cres.Imbalance != 0 {
					t.Errorf("%s/%s/%s: one-chip imbalance %v, want 0", process, spec.Name, pspec.Name, cres.Imbalance)
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
	pts, err := ClusterScaleData(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]map[int]ClusterScalePoint{}
	for _, p := range pts {
		if byPolicy[p.Policy] == nil {
			byPolicy[p.Policy] = map[int]ClusterScalePoint{}
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
