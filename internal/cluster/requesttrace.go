package cluster

import (
	"fmt"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/trace"
)

// TraceRun is the outcome of TraceRequests: the cluster result (spans
// included), the bounded span store backing the attribution report,
// and the merged Perfetto track set — per-chip engine occupancy
// overlaid with one track per tail exemplar.
type TraceRun struct {
	Stream *serve.Stream
	Result *Result
	Store  *rtrace.Store
	Tracks []trace.Track
}

// TraceRequests runs one fixed-seed serving stream across a cluster
// with request tracing on, and assembles the merged track set: each
// chip's engine tracks are rendered from the same occupancy log its
// spans were attributed from. load is the per-chip offered load (>1
// means overload); the routing policy is least-work. The run is
// deterministic for fixed inputs, so goldens can pin the merged
// export byte-exactly.
func TraceRequests(cfg arch.Config, classes []serve.Class, spec serve.SchedulerSpec, requests, chips int, load float64, seed int64) (*TraceRun, error) {
	if chips <= 0 {
		chips = 1
	}
	if load <= 0 {
		load = 1
	}
	gaps, err := serve.Gaps(cfg, classes, load*float64(chips))
	if err != nil {
		return nil, err
	}
	s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: requests, MeanGap: gaps[0], Seed: seed})
	if err != nil {
		return nil, err
	}

	pol, err := ByName("least-work")
	if err != nil {
		return nil, err
	}
	st := rtrace.NewStore(rtrace.Options{SampleEvery: 1, WorstN: 4})
	res, cols, err := serveRun(cfg, s, spec, pol.New(), Options{Chips: chips, Trace: st})
	if err != nil {
		return nil, err
	}

	// A chip's log is in chip-local instance coordinates: its nets are
	// the stream's nets routed to it, in stream order.
	chipNets := make([][]*compiler.CompiledNetwork, chips)
	for i, c := range res.Assignment {
		if c >= 0 {
			chipNets[c] = append(chipNets[c], s.Nets[i])
		}
	}
	var tracks []trace.Track
	for c, col := range cols {
		if col == nil {
			continue
		}
		tracks = append(tracks, trace.EngineTracks(col.Events(chipNets[c]), c+1, fmt.Sprintf("chip %d", c))...)
	}
	tracks = append(tracks, rtrace.Tracks(chips+1, st.Exemplars())...)
	return &TraceRun{Stream: s, Result: res, Store: st, Tracks: tracks}, nil
}
