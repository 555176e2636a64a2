#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Everything the build writes stays under .bench_build (or
# $CARGO_TARGET_DIR when set) in the current directory, which must be
# the repository root:
#
#   bash prophetbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/prophetbench" && go build -o "$out/prophetbench" .) >&2
exec "$out/prophetbench" "$@"
