#!/usr/bin/env bash
# BENCHMARK.json's command: build lshload, its leaf-timing sub-step and the
# lshserve under test from this checkout's source, then run lshload with the
# driver's arguments (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build and the run write stays inside the checkout: binaries,
# the Go build cache and temp files (WAL directories, the index file, the pid
# file) all live under .bench_build/. Run it from the repository root.
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "lshload: run from the repository root (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/" ./cmd/lshserve ./cmd/lshload
# Source C is allowed to break when leaf internals are refactored: without it
# the end-to-end metrics still print and the leaf metrics are listed missing.
layers="$build/bin/layers"
go build -o "$layers" ./cmd/lshload/layers || layers=/nonexistent/layers

exec "$build/bin/lshload" -lshserve "$build/bin/lshserve" -layers "$layers" \
	-tracefile "$build/trace.jsonl" "$@"
