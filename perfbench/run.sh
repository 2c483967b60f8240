#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files go
# under $CARGO_TARGET_DIR (default .bench_build) at the repository root,
# so a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/perfbench/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" -out "$out/perfbench" "$@"
