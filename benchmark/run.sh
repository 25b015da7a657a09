#!/usr/bin/env bash
# Entry point BENCHMARK.json declares: builds the benchmark from source and
# runs it with the arguments given. Run it from anywhere; see README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"

# Everything the toolchain writes — build cache, module cache, its own
# config — stays inside the checkout, under the one ignored directory.
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME

cd "$root"
go build -C benchmark -o "$build/bin/zombie-benchmark" .
exec "$build/bin/zombie-benchmark" "$@"
