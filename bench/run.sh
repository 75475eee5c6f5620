#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and execs it with
# the arguments given. Everything the build writes stays inside the
# checkout, under .bench_build (or $CARGO_TARGET_DIR when the driver
# sets one). Fails without output where there is no module to build.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a ddpm checkout (go.mod and bench/ expected here)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false CGO_ENABLED=0
go build -o "$build/ddpmbench" ./bench
exec "$build/ddpmbench" "$@"
