#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Every argument
# is passed through, e.g.:
#
#   bash perfbench/run.sh --workload errorfree --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# live under .bench_build/ at the repository root, so a run writes nothing
# outside the checkout. Outside a full checkout (no ../go.mod next to this
# directory) the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export PPROF_TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
