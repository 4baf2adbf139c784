#!/usr/bin/env bash
# Launcher for the performance ledger: builds the bench and foodmatchd from
# source into .bench_build/ at the root of the checkout (nothing is written
# anywhere else: Go's build cache and temp files are redirected there too),
# then runs the bench with the arguments given.
#
#   bash bench/run.sh                          every workload, one run each
#   bash bench/run.sh -workload dinner-peak    one workload in one process
#   bash bench/run.sh -selfcheck               two sets, compared by the bounds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(
	cd "$here"
	go build -o "$build/bin/bench" .
	go build -o "$build/bin/foodmatchd" repro/cmd/foodmatchd
)
export BENCH_SCRATCH="$build/tmp" FOODMATCHD_BIN="$build/bin/foodmatchd"
exec "$build/bin/bench" "$@"
