#!/usr/bin/env bash
# Builds perfbench from this checkout's sources into .bench_build and
# runs it with the given arguments, from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
