#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it:
#   bash perfbench/run.sh --workload plan_warm --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ inside the checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
