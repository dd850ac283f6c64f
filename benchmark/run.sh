#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds the benchmark from source
# into .bench_build inside the checkout and runs it with the arguments
# given (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the Go toolchain writes — build cache, module cache, its own
# telemetry — is pointed inside the checkout, so a run reads and writes
# nothing outside it, and works where HOME is unset. The first build
# compiles the standard library into the fresh cache; later runs reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off \
	go build -o "$build/benchmark" ./benchmark

exec "$build/benchmark" "$@"
