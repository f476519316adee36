#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the toolchain writes (build cache,
# scratch files, module cache, telemetry, the binary) stays under
# .bench_build/ in the checkout. Run it from the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go build -C "$root/bench" -o "$build/dynabench" . >&2
exec "$build/dynabench" "$@"
