#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark, e.g.
#   bash perfbench/run.sh --workload flashcrowd --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build cache and Go's own config stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
