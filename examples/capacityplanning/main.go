// Capacity planning: how much on-chip weight SRAM does a multi-tenant
// accelerator actually need? The paper's key scalability claim
// (§V-D, Fig 16) is that AI-MT's eviction-aware scheduling reaches
// near-ideal performance with a 1 MB buffer, while simpler
// prefetch-everything policies need orders of magnitude more.
//
// This example sweeps the buffer size for a heavy mixed workload and
// prints the speedup each policy achieves at each size, plus the SRAM
// power cost from the CACTI-calibrated model — the data a deployment
// would use to pick the cheapest adequate configuration.
package main

import (
	"fmt"
	"log"

	"aimt"
	"aimt/internal/power"
	"aimt/internal/workload"
)

func main() {
	base := aimt.PaperConfig()
	spec := aimt.PaperMixes()[3] // RN34 + RN50 + MobileNet + GNMT

	sizes := []aimt.Bytes{
		256 * aimt.KiB, 512 * aimt.KiB, 1 * aimt.MiB, 2 * aimt.MiB,
		4 * aimt.MiB, 16 * aimt.MiB, 64 * aimt.MiB, 256 * aimt.MiB,
	}

	fmt.Printf("weight-SRAM capacity planning for mix %s (batch 8, iterated)\n\n", spec.Name)
	fmt.Printf("%10s %16s %12s %12s %12s\n", "SRAM", "static power", "Greedy+PF", "AI-MT", "vs ideal")

	for _, sz := range sizes {
		cfg := base
		cfg.WeightSRAM = sz
		mix, err := workload.Build(cfg, spec, workload.BuildOptions{Batch: 8, Iterations: 2})
		if err != nil {
			log.Fatal(err)
		}
		fifo, err := aimt.Run(cfg, mix.Nets, aimt.NewFIFO(), aimt.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		greedy, err := aimt.Run(cfg, mix.Nets, aimt.NewGreedyPrefetch(), aimt.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		all, err := aimt.Run(cfg, mix.Nets, aimt.NewAIMT(cfg, aimt.AllMechanisms()), aimt.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ideal := aimt.IdealBound(mix.Nets)
		fmt.Printf("%10s %13.1f mW %11.2fx %11.2fx %11.2fx\n",
			fmtBytes(sz), power.SRAMPowerMW(sz),
			float64(fifo.Makespan)/float64(greedy.Makespan),
			float64(fifo.Makespan)/float64(all.Makespan),
			float64(all.Makespan)/float64(ideal))
	}
	fmt.Println("\n(vs ideal: AI-MT makespan over the max(total-compute, total-memory) lower bound)")
}

func fmtBytes(b aimt.Bytes) string {
	switch {
	case b >= aimt.MiB:
		return fmt.Sprintf("%d MiB", b/aimt.MiB)
	default:
		return fmt.Sprintf("%d KiB", b/aimt.KiB)
	}
}
