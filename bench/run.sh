#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout: bash bench/run.sh -workload scan-heavy
#
# Everything the Go toolchain writes — build cache, module cache,
# telemetry, temporary files — is kept under .bench_build in the
# checkout, so a run touches nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/BENCHMARK.json" || ! -d "$root/bench" ]]; then
	echo "bench/run.sh: run from the root of the checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

# bench is a module of its own (bench/go.mod) that replaces module sssj
# by the checkout around it; without that checkout the build fails.
go build -C "$root/bench" -buildvcs=false -o "$build/sssj-bench" .
exec "$build/sssj-bench" "$@"
