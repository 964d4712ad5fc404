#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload prefix-stream --seed 1 --seconds 30 --trace 0
#
# Every toolchain write stays under .bench_build and the module proxy is
# off: the benchmark builds offline from the checkout alone.
set -euo pipefail
# Fall back to the Go tarball's standard install location.
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
