#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry, and span files all go under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail
dir="${CARGO_TARGET_DIR:-.bench_build}"
case "$dir" in /*) ;; *) dir="$(pwd)/$dir" ;; esac
out="$dir/hostbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd hostbench && go build -o "$out/hostbench" .)
exec "$out/hostbench" --spans-dir "$out" "$@"
