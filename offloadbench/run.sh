#!/usr/bin/env bash
# Builds the offload benchmark from the sources of the checkout this
# script sits in, then runs it with the given arguments, e.g.
#
#   bash offloadbench/run.sh --workload tiny-bin --seed 1 --seconds 20 --trace 0
#
# Every build output and cache stays under .bench_build at the checkout
# root; nothing is fetched (the module needs only the standard library).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd "$root/offloadbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off \
		go build -o "$out/offloadbench" .
)
exec "$out/offloadbench" "$@"
