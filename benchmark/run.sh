#!/bin/bash
# Builds the benchmark (package ./benchmark of the repository's module) into
# the checkout's .bench_build/ and runs it, passing every argument through.
# The Go build cache lives there too, so a run reads and writes nothing
# outside the checkout. Run from the checkout's root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark >&2
exec "$build/benchmark" "$@"
