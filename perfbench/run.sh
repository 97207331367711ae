#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload keyed-sync --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, Go's per-user state) stays under .bench_build/ in the
# current directory; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/cache"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/cache"
export GOPATH="$out/home/go"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOTELEMETRY=off

if ! go -C "$root/perfbench" build -o "$out/perfbench.bin" . >&2; then
	echo "perfbench: build failed; run from the repository root" >&2
	exit 2
fi
exec "$out/perfbench.bin" "$@"
