#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the benchmark binary all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench" .
TMPDIR="$build/tmp" exec "$build/perfbench" "$@"
