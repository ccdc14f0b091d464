#!/usr/bin/env bash
# Builds suvbench from source and runs it with the given arguments, from the
# root of a checkout:
#
#   bash bench/run.sh --workload grid-cold --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1                  # all five workloads
#   bash bench/run.sh compare base/*.json -- change/*.json
#
# Every build artifact, the Go build cache included, stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build), and the build
# never touches the network: the benchmark module depends only on the
# simulator module next to it.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/go-build
export GOMODCACHE=$build/gomod
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$bench_dir" && go build -o "$build/suvbench" ./cmd/suvbench)
exec "$build/suvbench" "$@"
