// Command aimt runs one multi-network co-location scenario on the
// simulated accelerator and reports makespan, utilization and SRAM
// statistics.
//
// Usage:
//
//	aimt -mix "RN34,RN50/GNMT" -sched aimt-all -batch 4
//	aimt -mix "RN50/VGG16" -sched rr -sram 2MiB -v
//
// -sched takes any registered scheduler name or alias, in any case
// (fifo, rr, greedy, sjf, compute-first, aimt-pf, aimt-merge,
// aimt-all, ...); -h lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"aimt"
	"aimt/internal/isa"
	"aimt/internal/workload"
)

func main() {
	var (
		mixSpec  = flag.String("mix", "RN50/GNMT", "co-location spec: compute nets / memory nets, comma-separated zoo names")
		programs = flag.String("programs", "", "comma-separated .aimt binary programs (from aimt-compile) to run instead of -mix")
		sched    = flag.String("sched", "aimt-all", "scheduler: "+strings.Join(aimt.SchedulerNames(), "|"))
		batch    = flag.Int("batch", 1, "batch size")
		iters    = flag.Int("iterations", 1, "mix repetitions (continuous-arrival scenario)")
		sram     = flag.String("sram", "", "weight SRAM size override, e.g. 512KiB, 2MiB")
		verbose  = flag.Bool("v", false, "print per-network completion times")
	)
	flag.Parse()

	if err := run(*mixSpec, *programs, *sched, *batch, *iters, *sram, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "aimt:", err)
		os.Exit(1)
	}
}

func run(mixSpec, programs, sched string, batch, iters int, sram string, verbose bool) error {
	cfg := aimt.PaperConfig()
	if sram != "" {
		sz, err := parseBytes(sram)
		if err != nil {
			return err
		}
		cfg.WeightSRAM = sz
		if err := cfg.Validate(); err != nil {
			return err
		}
	}

	var mix *workload.Mix
	if programs != "" {
		m, err := loadPrograms(cfg, programs)
		if err != nil {
			return err
		}
		mix = m
		batch = 0 // per-program batches apply
	} else {
		spec, err := workload.ParseSpec(mixSpec)
		if err != nil {
			return err
		}
		m, err := workload.Build(cfg, spec, workload.BuildOptions{Batch: batch, Iterations: iters})
		if err != nil {
			return err
		}
		mix = m
	}

	s, err := makeScheduler(sched, cfg, mix)
	if err != nil {
		return err
	}

	res, err := aimt.Run(cfg, mix.Nets, s, aimt.RunOptions{})
	if err != nil {
		return err
	}

	fmt.Printf("config:     %s\n", cfg)
	if batch > 0 {
		fmt.Printf("mix:        %s (%d network instances, batch %d)\n", mix.Name, len(mix.Nets), batch)
	} else {
		fmt.Printf("mix:        %s (%d network instances, per-program batches)\n", mix.Name, len(mix.Nets))
	}
	fmt.Printf("scheduler:  %s\n", res.Scheduler)
	fmt.Printf("makespan:   %d cycles (%.3f ms at %.1f GHz)\n",
		res.Makespan, float64(res.Makespan)/float64(cfg.FreqHz)*1e3, float64(cfg.FreqHz)/1e9)
	fmt.Printf("ideal:      >= %d cycles (%.2fx above bound)\n",
		aimt.IdealBound(mix.Nets), float64(res.Makespan)/float64(aimt.IdealBound(mix.Nets)))
	fmt.Printf("PE util:    %.1f%%   memory BW util: %.1f%%\n", 100*res.PEUtilization(), 100*res.MemUtilization())
	fmt.Printf("SRAM peak:  %d bytes of %d\n", res.SRAMPeakBytes(), cfg.WeightSRAM)
	fmt.Printf("blocks:     %d MBs fetched, %d CBs executed, %d splits\n", res.MBCount, res.CBCount, res.Splits)
	if verbose {
		for i, name := range res.NetNames {
			fmt.Printf("  net %d %-10s finished at %d\n", i, name, res.NetFinish[i])
		}
	}
	return nil
}

// makeScheduler builds the named registry scheduler for the mix.
func makeScheduler(name string, cfg aimt.Config, mix *workload.Mix) (aimt.Scheduler, error) {
	e, err := aimt.SchedulerByName(name)
	if err != nil {
		return nil, err
	}
	return e.New(cfg, aimt.SchedulerInput{MemHeavy: mix.MemHeavy}), nil
}

// loadPrograms builds a mix from binary .aimt program files produced
// by aimt-compile. Memory-intensity flags are derived from each
// reconstructed table.
func loadPrograms(cfg aimt.Config, list string) (*workload.Mix, error) {
	mix := &workload.Mix{Name: list, Replication: 1}
	for _, path := range strings.Split(list, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		prog, err := isa.Decode(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		cn, err := prog.ToCompiledNetwork(cfg.BlockBytes())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		mix.Nets = append(mix.Nets, cn)
		mix.MemHeavy = append(mix.MemHeavy, cn.MemoryIntensive())
	}
	if len(mix.Nets) == 0 {
		return nil, fmt.Errorf("no programs in %q", list)
	}
	return mix, nil
}

// parseBytes parses sizes like "512KiB", "2MiB", "1GiB", "65536".
func parseBytes(s string) (aimt.Bytes, error) {
	mult := aimt.Bytes(1)
	up := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(up, "GIB"), strings.HasSuffix(up, "GB"):
		mult = aimt.GiB
	case strings.HasSuffix(up, "MIB"), strings.HasSuffix(up, "MB"):
		mult = aimt.MiB
	case strings.HasSuffix(up, "KIB"), strings.HasSuffix(up, "KB"):
		mult = aimt.KiB
	}
	num := strings.TrimRight(up, "GIMKB")
	n, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return aimt.Bytes(n * float64(mult)), nil
}
