#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run it from the root of the repository: bash bench/run.sh -seed 1
#
# Everything the build leaves behind (the Go build cache and the binary) stays
# inside the checkout, under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
