package rtrace_test

import (
	"testing"

	"aimt/internal/arch"
	"aimt/internal/core"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
)

// BenchmarkBuild measures the span builder alone: bucketing a served
// stream's occupancy log by instance, grouping entries into requests
// and attributing every entry window. The run is simulated once,
// outside the timer.
func BenchmarkBuild(b *testing.B) {
	cfg := arch.PaperConfig()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	s, err := serve.NewStream(cfg, serve.DefaultClasses(), serve.StreamOptions{Requests: 2000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	col := rtrace.NewCollector(len(s.Nets))
	res, err := sim.Run(cfg, s.Nets, core.New(cfg, core.All()), sim.Options{Arrivals: s.Arrivals, Tracer: col})
	if err != nil {
		b.Fatal(err)
	}
	in := serve.TraceInput(s, res, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	var spans []rtrace.RequestSpan
	for i := 0; i < b.N; i++ {
		spans = rtrace.Build(in, col)
	}
	b.ReportMetric(float64(len(spans)), "spans/op")
}
