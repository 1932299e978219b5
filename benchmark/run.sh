#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# checkout root with the arguments given. Everything the Go toolchain writes
# (build cache, module cache, work directory, telemetry counters) is pointed inside
# .bench_build/, so nothing outside the checkout is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/aujoin-bench" .
exec "$build/aujoin-bench" "$@"
