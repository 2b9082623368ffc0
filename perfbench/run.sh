#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload login-http --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh repeat -n 5 --workload retrain --seconds 20
#
# Everything the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build): the Go
# build cache, the binary, and each run's scratch directory (server
# logs, audit ledgers), which the run removes when it ends.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"

# The benchmark module replaces the polygraph module with the checkout
# it sits in (../), so a directory holding only the benchmark fails to
# build here, before anything runs.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
  GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$build/perfbench" .)

exec "$build/perfbench" "$@" --workdir "$build"
