// Package sweep runs batches of independent simulations — the paper's
// mix × scheduler × mechanism cross-products — over a worker pool.
//
// Results are deterministic regardless of worker count: every job
// writes its outcome into a slot fixed by its index, so aggregation
// order is the job order, never the completion order. Sharing compiled
// networks across concurrent jobs is safe because the simulator treats
// them as read-only; each job gets a fresh scheduler from its factory
// because schedulers carry run state.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/sim"
)

// Job is one simulation in a sweep.
type Job struct {
	// Mix and Scheduler label the job in outcomes and error messages.
	// An empty Scheduler is filled from the constructed scheduler's
	// Name.
	Mix       string
	Scheduler string

	// Cfg is the hardware configuration for this job (jobs in one
	// sweep may differ, e.g. the Fig 16 SRAM sweep).
	Cfg arch.Config

	// Nets is the co-located network set. The simulator never mutates
	// compiled networks, so the same slice may back many jobs.
	Nets []*compiler.CompiledNetwork

	// New constructs the job's scheduler. It must return a fresh value
	// on every call: schedulers carry per-run state and a sweep runs
	// jobs concurrently.
	New func() sim.Scheduler

	// Opts forwards per-job simulation options (arrivals, tracing,
	// invariant checking).
	Opts sim.Options
}

// Outcome is one job's result. Outcomes are returned in job order.
type Outcome struct {
	// Index is the job's position in the sweep.
	Index int
	// Mix and Scheduler echo the job's labels.
	Mix       string
	Scheduler string
	// Res is the simulation result, nil if Err is set.
	Res *sim.Result
	// Err is the job's failure, nil on success.
	Err error
}

// Options tunes a sweep.
type Options struct {
	// Workers caps the worker pool; <= 0 means GOMAXPROCS.
	Workers int
}

// Run executes every job and returns their outcomes in job order.
// Individual failures land in Outcome.Err (see FirstError); Run itself
// never fails.
func Run(jobs []Job, opts Options) []Outcome {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	out := make([]Outcome, len(jobs))
	runOne := func(i int) {
		j := jobs[i]
		o := Outcome{Index: i, Mix: j.Mix, Scheduler: j.Scheduler}
		if j.New == nil {
			o.Err = fmt.Errorf("sweep: job %d (%s) has no scheduler factory", i, j.Mix)
		} else {
			s := j.New()
			if o.Scheduler == "" {
				o.Scheduler = s.Name()
			}
			o.Res, o.Err = sim.Run(j.Cfg, j.Nets, s, j.Opts)
		}
		out[i] = o
	}

	if workers <= 1 {
		for i := range jobs {
			runOne(i)
		}
		return out
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// FirstError returns the first failed outcome's error, annotated with
// the job's labels, or nil if every job succeeded.
func FirstError(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			if o.Scheduler != "" {
				return fmt.Errorf("%s under %s: %w", o.Mix, o.Scheduler, o.Err)
			}
			return fmt.Errorf("%s: %w", o.Mix, o.Err)
		}
	}
	return nil
}
