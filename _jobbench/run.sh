#!/usr/bin/env bash
# Builds the job-service benchmark from source and runs it. Everything the
# build writes (Go build cache, temporary files, the binary) and the trace and
# result files go under .bench_build in the current directory.
#
# Usage, from the repository root:
#
#   bash _jobbench/run.sh --workload small-jobs --seed 1 --seconds 10 --trace 0
#   bash _jobbench/run.sh --workload all --seed 1 --seconds 10
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$bench" && go build -o "$out/jobbench" .)
exec "$out/jobbench" -out "$out" "$@"
