#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (--workload, --seed, --seconds, --trace). Run it from the root
# of the repository. The binary, the Go build cache and the Go
# toolchain's own state all stay under .bench_build, so nothing is read
# or written outside the checkout, and nothing is downloaded.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
