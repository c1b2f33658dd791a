#!/usr/bin/env bash
# Tests and builds the benchmark program from this checkout's sources into
# .bench_build/ and runs it with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload estimate-hot --seed 1 --seconds 25 --trace 0
#
# perfbench is a module of its own, so the repository's `go test ./...`
# does not reach its tests; they run here instead, before every run (go
# caches a passing result until the sources change), and a failure stops
# the run. The Go build cache, temporary files and tool configuration all
# live under .bench_build/, so a run writes nothing outside the checkout.
# The module has no dependencies outside the repository, so the go command
# is told never to download anything.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go test . >&2 && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
