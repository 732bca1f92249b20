#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload guard-steady --seed 1 --seconds 10 --trace 0
# Run from the repository root. The binary, the Go build cache and the trace
# files go to $CARGO_TARGET_DIR when it is set, else to .bench_build.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
# Keep every file the go command writes (build cache, module cache, its
# config and telemetry under XDG_CONFIG_HOME) inside the build directory.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" --out "$build/perfbench" "$@"
