#!/usr/bin/env bash
# Entry point of the benchmark (see BENCHMARK.json): builds the harness
# from the checkout's source into .bench_build/ at the checkout root,
# then runs it from this directory with the caller's arguments. The
# harness builds cmd/hpfrun there too when a workload needs it.
# Everything the go tool writes (build cache, temp files, config) is
# kept inside .bench_build/, and nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$build/bench" .
exec "$build/bench" -build-dir "$build" "$@"
