#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload serve-poisson --seed 7 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build/
# in the current directory. The build needs the aimt module one
# directory above benchmark/, so outside a full checkout it fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -o "$out/aimt-benchmark" .)
exec "$out/aimt-benchmark" "$@"
