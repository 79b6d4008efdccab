#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload oltp_read --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Build outputs, the Go build cache and
# the benchmark's temporary data directories all live under .bench_build,
# so nothing is written outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command keeps its user config and telemetry counters under the
# XDG config directory.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
# Build offline with the installed toolchain only: the module has no
# dependencies outside this checkout.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off
# Build under a temporary name and rename, so a binary that another run
# is executing is never overwritten in place.
go -C perfbench build -o "$out/perfbench.$$" .
# Write the binary out now, so its write-back does not land in a measured
# window of a workload that waits on fsync.
sync "$out/perfbench.$$"
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
