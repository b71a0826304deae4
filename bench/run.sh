#!/usr/bin/env bash
# Builds dtbbench from this checkout and runs it, e.g.
#
#   bash bench/run.sh --workload fanout64 --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh compare parent/*.out -- change/*.out
#
# Run it from the repository root. The binary, the Go build cache and a
# traced run's spans stay inside the checkout, under $CARGO_TARGET_DIR
# (default .bench_build). The build never touches the network: the
# bench module depends only on the repository module, by a local
# replace.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomodcache \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOMAXPROCS=2

(cd "$root/bench" && go build -o "$build/dtbbench" ./cmd/dtbbench)

if [ "${1:-}" = compare ]; then
	exec "$build/dtbbench" "$@"
fi
exec "$build/dtbbench" --spans-dir "$build/spans" "$@"
