#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-select --seed 1 --seconds 20 --trace 0
#
# The build and its cache stay inside the checkout, under .bench_build.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
# Keep go's own state (module path cache, telemetry, env file) in the
# checkout too.
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR"

# The benchmark imports the repository's packages through a replace directive
# to its parent directory, so the build fails outside a full checkout.
(cd "$here" && go build -o "$build/perfbench/perfbench" ./cmd/perfbench)

exec "$build/perfbench/perfbench" -reference "$here/reference.json" -out "$build/perfbench" "$@"
