#!/usr/bin/env bash
# Builds the gecco-serve load generator from source and runs it with the
# given arguments, from the repository root:
#
#   bash bench/run.sh --workload upload-cold --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 1                  # all five workloads
#
# Everything the build writes (Go build cache, temp files, the binary) stays
# under .bench_build/ in the repository root, and the toolchain is told not
# to reach the network: the module has no dependencies outside the repo.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/bench" && go build -o "$out/gecco-loadgen" .)
cd "$root"
exec "$out/gecco-loadgen" "$@"
