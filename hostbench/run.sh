#!/usr/bin/env bash
# Builds the host-clock benchmark from source and runs it, passing every
# argument through. Build outputs, Go caches, traces and profiles all
# stay in .bench_build/ at the repository root.
#
#   bash hostbench/run.sh --workload olap-suite --seed 1 --seconds 10 --trace 0
#   bash hostbench/run.sh compare parent.jsonl change.jsonl
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/hostbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
cd "$root"
exec "$out/hostbench" "$@"
