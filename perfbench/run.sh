#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-sync-g3 --seed 1 --seconds 10 --trace 0
#
# Every build product and every output file stays under .bench_build/ in
# the repository root; the Go toolchain is kept offline and local.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
