#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash tsbench/run.sh --workload snoop --seed 1 --seconds 20 --trace 0
#
# Run from the root of a tsnoop checkout. Everything the build and the
# run write stays under .bench_build in the checkout (CARGO_TARGET_DIR
# names it when set). A failed build exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd "$root/tsbench" && go build -o "$out/tsbench" .)
exec "$out/tsbench" "$@"
