#!/usr/bin/env bash
# Builds campaignbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash campaignbench/run.sh --workload mc_des --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, reports, traces,
# profiles) stays under .bench_build/campaignbench in the directory it
# is run from.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build/campaignbench"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$build/campaignbench" .)
exec "$build/campaignbench" -out "$build/out" -manifest "$root/BENCHMARK.json" "$@"
