// Package workload synthesizes the multi-network co-location scenarios
// of the paper's evaluation (§V-A): compute-intensive CNNs combined
// with memory-intensive networks (GNMT, VGG16 with its large FC
// layers), with the memory-intensive side iterated so that the total
// memory-block load roughly matches the compute-block load the CNNs
// produce.
package workload

import (
	"fmt"
	"strings"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/nn"
)

// Spec names a co-location scenario: which networks are the compute-
// intensive side and which the memory-intensive side.
type Spec struct {
	// Name labels the mix in figures, e.g. "RN34+GNMT".
	Name string

	// Compute lists zoo names of the compute-intensive networks.
	Compute []string

	// Memory lists zoo names of the memory-intensive networks.
	Memory []string
}

// PaperMixes returns the eight co-location mixes evaluated in
// Figs 7, 8 and 14: each CNN (and the three combined) against GNMT
// and against VGG16.
func PaperMixes() []Spec {
	return []Spec{
		{Name: "RN34+GNMT", Compute: []string{"RN34"}, Memory: []string{"GNMT"}},
		{Name: "RN50+GNMT", Compute: []string{"RN50"}, Memory: []string{"GNMT"}},
		{Name: "MN+GNMT", Compute: []string{"MN"}, Memory: []string{"GNMT"}},
		{Name: "RN34+RN50+MN+GNMT", Compute: []string{"RN34", "RN50", "MN"}, Memory: []string{"GNMT"}},
		{Name: "RN34+VGG16", Compute: []string{"RN34"}, Memory: []string{"VGG16"}},
		{Name: "RN50+VGG16", Compute: []string{"RN50"}, Memory: []string{"VGG16"}},
		{Name: "MN+VGG16", Compute: []string{"MN"}, Memory: []string{"VGG16"}},
		{Name: "RN34+RN50+MN+VGG16", Compute: []string{"RN34", "RN50", "MN"}, Memory: []string{"VGG16"}},
	}
}

// GNMTMixes returns the CNN+GNMT subset used by the batch-size
// sensitivity study (Fig 15).
func GNMTMixes() []Spec {
	all := PaperMixes()
	var out []Spec
	for _, s := range all {
		if len(s.Memory) == 1 && s.Memory[0] == "GNMT" {
			out = append(out, s)
		}
	}
	return out
}

// Mix is a compiled co-location scenario ready to simulate.
type Mix struct {
	// Name is the spec name, possibly annotated with the replication
	// factor, e.g. "RN34+GNMT(x3)".
	Name string

	// Nets holds the compiled network instances in arrival order:
	// compute-intensive first, then the replicated memory-intensive
	// instances (interleaved round-robin when several).
	Nets []*compiler.CompiledNetwork

	// MemHeavy flags, per instance, the memory-intensive networks
	// (used by the ComputeFirst baseline).
	MemHeavy []bool

	// Replication is the factor applied to the memory-intensive side.
	Replication int
}

// BuildOptions tune mix construction.
type BuildOptions struct {
	// Batch is the batch size for every network; zero means 1.
	Batch int

	// MaxReplication caps the memory-side iteration factor; zero
	// means 32.
	MaxReplication int

	// Iterations replicates the whole balanced mix, modelling the
	// continuous-arrival cloud scenario of Fig 16; zero means 1.
	Iterations int
}

// Build compiles and balances a co-location spec: the memory-intensive
// networks are replicated so their total memory-block cycles
// approximate the compute-block cycles produced by the whole mix
// (paper §III-B: "we iteratively run memory-intensive workloads to
// properly match the amount of CBs produced by compute-intensive
// workloads").
func Build(cfg arch.Config, spec Spec, opts BuildOptions) (*Mix, error) {
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	if opts.MaxReplication <= 0 {
		opts.MaxReplication = 32
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 1
	}

	compile := func(names []string) ([]*compiler.CompiledNetwork, error) {
		var out []*compiler.CompiledNetwork
		for _, name := range names {
			net, err := nn.ByName(name)
			if err != nil {
				return nil, err
			}
			cn, err := compiler.Compile(net, cfg, opts.Batch)
			if err != nil {
				return nil, err
			}
			out = append(out, cn)
		}
		return out, nil
	}

	comp, err := compile(spec.Compute)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
	}
	mem, err := compile(spec.Memory)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
	}
	if len(comp) == 0 || len(mem) == 0 {
		return nil, fmt.Errorf("workload %s: both sides must be non-empty", spec.Name)
	}

	var compCB, memMB arch.Cycles
	for _, cn := range comp {
		s := cn.Stats()
		compCB += s.CBCycles
	}
	for _, cn := range mem {
		s := cn.Stats()
		memMB += s.MBCycles
	}
	rep := 1
	if memMB > 0 {
		rep = int((compCB + memMB/2) / memMB)
	}
	if rep < 1 {
		rep = 1
	}
	if rep > opts.MaxReplication {
		rep = opts.MaxReplication
	}

	m := &Mix{Replication: rep}
	m.Name = spec.Name
	if rep > 1 {
		m.Name = fmt.Sprintf("%s(x%d)", spec.Name, rep)
	}
	for it := 0; it < opts.Iterations; it++ {
		for _, cn := range comp {
			m.Nets = append(m.Nets, cn)
			m.MemHeavy = append(m.MemHeavy, false)
		}
		for r := 0; r < rep; r++ {
			for _, cn := range mem {
				m.Nets = append(m.Nets, cn)
				m.MemHeavy = append(m.MemHeavy, true)
			}
		}
	}
	return m, nil
}

// ParseSpec builds a Spec from a string like "RN34,RN50/GNMT": compute
// networks before the slash, memory networks after.
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return Spec{}, fmt.Errorf("workload: spec %q must be compute1,compute2/mem1,mem2", s)
	}
	split := func(s string) []string {
		var out []string
		for _, f := range strings.Split(s, ",") {
			if f = strings.TrimSpace(f); f != "" {
				out = append(out, f)
			}
		}
		return out
	}
	spec := Spec{
		Name:    s,
		Compute: split(parts[0]),
		Memory:  split(parts[1]),
	}
	if len(spec.Compute) == 0 || len(spec.Memory) == 0 {
		return Spec{}, fmt.Errorf("workload: spec %q has an empty side", s)
	}
	return spec, nil
}
