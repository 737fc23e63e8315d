#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload mcnc-table6 --seed 0 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, spans, temporary stores) stays under
# .bench_build/ in the current directory. Without the repository's go.mod
# next to perfbench/ the build fails and the script exits non-zero before
# printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
