#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload pag-steady --seed 1 --seconds 32 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build cache
# and temporary files included, stays under .bench_build in the working
# directory. The last line of standard output is the result object.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
