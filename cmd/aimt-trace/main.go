// Command aimt-trace runs one co-location scenario and emits its
// execution timeline: an ASCII Gantt chart on stdout (like the
// paper's Figs 6/12/13) and, optionally, Chrome trace_event JSON for
// chrome://tracing or Perfetto.
//
// Usage:
//
//	aimt-trace -mix "RN50/GNMT" -sched aimt-all
//	aimt-trace -mix "RN34/GNMT" -sched rr -json trace.json -width 120
//
// With -requests N the command switches to request-trace mode: a
// fixed-seed serving stream of N requests runs across a -chips
// cluster at per-chip offered -load, with request tracing and engine
// tracing both on. Stdout gets the per-class latency-attribution
// report and the tail exemplars decomposed into named segments; -json
// writes the merged Perfetto/Chrome export, overlaying one track per
// tail exemplar onto the per-chip engine occupancy tracks, so a slow
// request can be eyeballed against what the chips were doing:
//
//	aimt-trace -requests 400 -chips 2 -load 2 -json merged.json
//	aimt-trace -requests 400 -transformer -seed 11
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aimt"
	"aimt/internal/trace"
	"aimt/internal/workload"
)

func main() {
	var (
		mixSpec     = flag.String("mix", "RN50/GNMT", "co-location spec: compute nets / memory nets")
		sched       = flag.String("sched", "aimt-all", "scheduler: "+strings.Join(aimt.SchedulerNames(), "|"))
		batch       = flag.Int("batch", 1, "batch size")
		width       = flag.Int("width", 100, "Gantt chart width in columns")
		jsonOut     = flag.String("json", "", "write Chrome trace_event JSON to this file")
		util        = flag.Int("util", 0, "also print a utilization time series with this many windows")
		requests    = flag.Int("requests", 0, "request-trace mode: serve this many requests with per-request attribution (0 = classic mix trace)")
		chips       = flag.Int("chips", 2, "with -requests, cluster size")
		load        = flag.Float64("load", 2.0, "with -requests, per-chip offered load")
		seed        = flag.Int64("seed", 7, "with -requests, stream seed")
		transformer = flag.Bool("transformer", false, "with -requests, serve the transformer/CNN mix instead of CNN/RNN")
	)
	flag.Parse()

	var err error
	if *requests > 0 {
		err = runRequests(*requests, *chips, *load, *seed, *transformer, *jsonOut)
	} else {
		err = run(*mixSpec, *sched, *batch, *width, *jsonOut, *util)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aimt-trace:", err)
		os.Exit(1)
	}
}

// runRequests is request-trace mode: one fixed-seed serving run with
// request + engine tracing on, attribution on stdout, and the merged
// Perfetto export (engine occupancy + tail-exemplar tracks) on -json.
func runRequests(requests, chips int, load float64, seed int64, transformer bool, jsonOut string) error {
	cfg := aimt.PaperConfig()
	classes := aimt.DefaultServingClasses()
	mixName := "CNN/RNN"
	if transformer {
		classes = aimt.TransformerServingClasses()
		mixName = "transformer/CNN"
	}
	e, err := aimt.SchedulerByName("AI-MT")
	if err != nil {
		return err
	}
	tr, err := aimt.ClusterTraceRequests(cfg, classes, aimt.ServeSpec(e), requests, chips, load, seed)
	if err != nil {
		return err
	}

	total, shed, _ := tr.Store.Totals()
	fmt.Printf("request trace: %s mix, %d requests across %d chips at per-chip load %.2f (seed %d)\n",
		mixName, requests, chips, load, seed)
	fmt.Printf("  served %d, shed %d, makespan %d cycles\n\n", total, shed, int64(tr.Result.Agg.Makespan))

	if err := aimt.PrintRequestAttribution(os.Stdout, tr.Store.Attribution()); err != nil {
		return err
	}

	fmt.Println("\ntail exemplars (segments sum exactly to latency):")
	for _, sp := range tr.Store.Exemplars() {
		flags := ""
		if sp.Missed {
			flags = "  MISSED"
		}
		fmt.Printf("  req %-4d %-8s chip %d  latency %d cyc%s\n", sp.Req, sp.Class, sp.Chip, int64(sp.Latency), flags)
		for _, s := range sp.Totals {
			fmt.Printf("    %-14s %12d cyc\n", s.Kind, int64(s.Cycles))
		}
	}

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteChromeTracks(f, tr.Tracks); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d merged tracks to %s\n", len(tr.Tracks), jsonOut)
	}
	return nil
}

func run(mixSpec, sched string, batch, width int, jsonOut string, utilWindows int) error {
	cfg := aimt.PaperConfig()
	spec, err := workload.ParseSpec(mixSpec)
	if err != nil {
		return err
	}
	mix, err := workload.Build(cfg, spec, workload.BuildOptions{Batch: batch})
	if err != nil {
		return err
	}

	e, err := aimt.SchedulerByName(sched)
	if err != nil {
		return err
	}
	rec := &trace.Recorder{}
	res, err := aimt.Run(cfg, mix.Nets, e.New(cfg, aimt.SchedulerInput{MemHeavy: mix.MemHeavy}), aimt.RunOptions{Tracer: rec})
	if err != nil {
		return err
	}

	fmt.Printf("mix %s under %s: makespan %d cycles, PE %.1f%%, mem %.1f%%\n",
		mix.Name, res.Scheduler, res.Makespan, 100*res.PEUtilization(), 100*res.MemUtilization())
	for i, name := range res.NetNames {
		fmt.Printf("  net %d = %s\n", i, name)
	}
	fmt.Print(rec.Gantt(res.Makespan, width))

	if utilWindows > 0 {
		window := res.Makespan / aimt.Cycles(utilWindows)
		if window < 1 {
			window = 1
		}
		fmt.Println("\nwindow-start  mem-util  pe-util")
		for _, p := range rec.UtilizationSeries(res.Makespan, window) {
			fmt.Printf("%12d  %8.2f  %7.2f\n", p.Start, p.Mem, p.PE)
		}
	}

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", len(rec.Events), jsonOut)
	}
	return nil
}
