#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload cpals-64c3-r16 --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) stays under
# .bench_build/ in the checkout, so nothing outside it is read or
# written. The build needs the repository's go.mod one directory up; a
# checkout holding only the benchmark fails here, before any result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
