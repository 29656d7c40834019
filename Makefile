# Standard entrypoints. `make check` is the full verification gate:
# vet + build + race-enabled tests (the race run also proves the
# parallel sweep engine's determinism test clean).

GO ?= go

# Throughput-critical benchmarks that gate CI (see cmd/aimt-benchjson
# and testdata/bench_baseline.json). The EngineObs pair measures the
# observability layer: Disabled is the instrumented-but-off path that
# must stay free, Enabled the full emission cost. Build (span
# attribution) and LedgerNote (one decision noted into a run-local log,
# with its share of the fold into the ledger) are the request-tracing
# and ledger layers on their own, ServeStreamObserved is the admin
# daemon's fully observed serving unit end to end, and Cluster8 is one
# cluster.Serve call over 8 chips with least-work routing (the
# cluster.Deadline type) and admission. NewStream is the stream layer
# alone: compiling the classes and drawing Cluster8's 4000-request
# transformer stream, the set-up every serving run starts from.
BENCH_PATTERN ?= BenchmarkSimulatorThroughput|BenchmarkServeStream|BenchmarkServeStreamObserved|BenchmarkCluster8|BenchmarkCandidateScan|BenchmarkEngineObs|BenchmarkBuild|BenchmarkLedgerNote|BenchmarkNewStream

.PHONY: check build test race vet benchmod lint fuzz-short bench benchall benchcheck bench-compare profile golden

check: vet build race benchmod

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness is its own module (benchmark/go.mod), so the
# root ./... patterns never reach it, yet it imports internal APIs.
benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Static analysis beyond vet. staticcheck and govulncheck are skipped
# with a hint when not installed, so the target degrades gracefully on
# machines without them; CI installs pinned versions and runs both.
lint: vet
	@gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$' || { echo "gofmt: files above need formatting"; exit 1; }
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Short fuzz smoke: 30s per target over the compiler, stream,
# admission and transformer fuzzers. `go test` accepts one -fuzz pattern per
# invocation, hence one run each.
FUZZTIME ?= 30s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzStream$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAdmission$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzTransformerCompile$$' -fuzztime $(FUZZTIME) .

# Run the engine-throughput benchmarks and write $(BENCH_OUT)
# (blocks/sec, ns/op, allocs/op per benchmark). Bump BENCH_OUT per PR
# so the BENCH_*.json series accumulates as run history for /runs.
BENCH_OUT ?= BENCH_24.json
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . ./internal/sim ./internal/rtrace ./internal/obs ./internal/serve | tee bench.txt
	$(GO) run ./cmd/aimt-benchjson -in bench.txt -out $(BENCH_OUT)

# Gate against the checked-in baseline; fails only on gross (2×)
# ns/op or allocs/op regressions so runner-to-runner variance doesn't
# flake CI. The allocs gate is what pins the allocation-free core.
benchcheck: bench
	$(GO) run ./cmd/aimt-benchjson -in bench.txt -compare testdata/bench_baseline.json

# Structured metric-by-metric diff of two recorded runs (BENCH json
# files or runstore directories, dir[#runID]); exits nonzero when any
# metric regressed beyond BENCH_NOISE in its unit's bad direction.
# Defaults diff a fresh bench run against the checked-in baseline.
BENCH_NOISE ?= 1.5
COMPARE_OLD ?= testdata/bench_baseline.json
COMPARE_NEW ?= $(BENCH_OUT)
bench-compare:
	@test -e $(COMPARE_NEW) || $(MAKE) bench BENCH_OUT=$(COMPARE_NEW)
	$(GO) run ./cmd/aimt-benchjson -diff -noise $(BENCH_NOISE) $(COMPARE_OLD) $(COMPARE_NEW)

# Every benchmark in the repo, including the paper-figure sweeps.
benchall:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Profile a production-scale serving sweep; inspect with
#   go tool pprof -top cpu.pprof
profile:
	$(GO) run ./cmd/aimt-serve -requests 20000 -loads 0.9 -sched AI-MT -parallel 1 \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "profiles written: cpu.pprof mem.pprof (go tool pprof -top cpu.pprof)"

# Regenerate the golden paper-figure outputs under testdata/ after an
# intentional change to an experiment.
golden:
	$(GO) test -run TestGoldenExperiments -update .
