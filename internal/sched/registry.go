package sched

import (
	"fmt"
	"strings"

	"aimt/internal/arch"
	"aimt/internal/core"
	"aimt/internal/sim"
)

// Input holds the per-run facts a scheduler factory may read, each
// indexed like the network slice handed to sim.Run. A factory ignores
// the fields it does not need; nil means none (no deadlines, uniform
// priorities, no memory-intensive networks).
type Input struct {
	// Deadlines are absolute per-network deadlines (EDF).
	Deadlines []arch.Cycles
	// Priorities are per-network class priorities (AI-MT+Prio).
	Priorities []int
	// MemHeavy flags the memory-intensive networks (ComputeFirst+PF).
	MemHeavy []bool
}

// Entry names one scheduler and builds a fresh instance per run
// (schedulers carry per-run state).
type Entry struct {
	// Name labels the scheduler in tables, reports and flags.
	Name string
	// Aliases are further spellings ByName accepts.
	Aliases []string
	// New constructs a fresh scheduler for one run.
	New func(cfg arch.Config, in Input) sim.Scheduler
}

// registry is the one name→factory table for every scheduler the repo
// builds, in comparison order: the paper's baselines (§III-B, Fig 8,
// Fig 16), PREMA (§VII-C), the AI-MT ablation (Fig 14), and the
// serving extensions.
var registry = []Entry{
	{Name: "FIFO", New: func(arch.Config, Input) sim.Scheduler { return NewFIFO() }},
	{Name: "SerialFIFO", New: func(arch.Config, Input) sim.Scheduler { return NewSerialFIFO() }},
	{Name: "RR", New: func(arch.Config, Input) sim.Scheduler { return NewRR() }},
	{Name: "Greedy", New: func(arch.Config, Input) sim.Scheduler { return NewGreedy() }},
	{Name: "Greedy+PF", New: func(arch.Config, Input) sim.Scheduler { return NewGreedyPrefetch() }},
	{Name: "SJF", New: func(arch.Config, Input) sim.Scheduler { return NewSJF() }},
	{Name: "ComputeFirst+PF", Aliases: []string{"ComputeFirst", "compute-first"},
		New: func(_ arch.Config, in Input) sim.Scheduler { return NewComputeFirst(in.MemHeavy) }},
	{Name: "PREMA", New: func(arch.Config, Input) sim.Scheduler { return NewPREMA(nil) }},
	{Name: "AI-MT(PF)", Aliases: []string{"aimt-pf"},
		New: func(cfg arch.Config, _ Input) sim.Scheduler { return core.New(cfg, core.Prefetch()) }},
	{Name: "AI-MT(PF+Merge)", Aliases: []string{"aimt-merge"},
		New: func(cfg arch.Config, _ Input) sim.Scheduler { return core.New(cfg, core.PrefetchMerge()) }},
	{Name: "AI-MT", Aliases: []string{"AI-MT(All)", "aimt-all", "aimt"},
		New: func(cfg arch.Config, _ Input) sim.Scheduler { return core.New(cfg, core.All()) }},
	// Class priorities drive cross-request preemption through the
	// CB-split path; with uniform priorities it is bit-identical to
	// AI-MT.
	{Name: "AI-MT+Prio", New: func(cfg arch.Config, in Input) sim.Scheduler {
		return core.New(cfg, core.All()).SetPreemptPriorities(in.Priorities)
	}},
	{Name: "EDF", New: func(_ arch.Config, in Input) sim.Scheduler { return NewEDF(in.Deadlines) }},
	// Speculative lookahead over full AI-MT at the default horizon. Each
	// contested fetch costs two forward simulations, so no standard
	// comparison set includes it.
	{Name: "Lookahead", New: func(cfg arch.Config, _ Input) sim.Scheduler {
		return NewLookahead(core.New(cfg, core.All()), 0)
	}},
}

// Registry returns every scheduler entry in comparison order.
func Registry() []Entry { return append([]Entry(nil), registry...) }

// Names returns the entry names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// ByName resolves a scheduler from its name or one of its aliases,
// ignoring case.
func ByName(name string) (Entry, error) {
	name = strings.TrimSpace(name)
	for _, e := range registry {
		if strings.EqualFold(e.Name, name) {
			return e, nil
		}
		for _, a := range e.Aliases {
			if strings.EqualFold(a, name) {
				return e, nil
			}
		}
	}
	return Entry{}, fmt.Errorf("sched: unknown scheduler %q (have %s)", name, strings.Join(Names(), ", "))
}
