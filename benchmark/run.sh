#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source of the checkout this
# script sits in, then runs it with the given flags from the checkout
# root. Build outputs, the Go build cache and temporary files stay under
# .bench_build/ at the checkout root. The build fails, and so does this
# script, when the library sources are not next to the benchmark.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
go -C "$root/benchmark" build -o "$out/psn-benchmark" .
cd "$root"
exec "$out/psn-benchmark" "$@"
