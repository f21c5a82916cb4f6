#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary, the Go build cache and
# any trace output stay under $CARGO_TARGET_DIR (default .bench_build)
# in the checkout. The build needs the rest of the repository (the
# module replaces espresso with ..), so outside a full checkout it fails
# and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench/tmp"
export GOCACHE="$out/perfbench/gocache" GOTMPDIR="$out/perfbench/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOPATH="$out/perfbench/gopath" GOMODCACHE="$out/perfbench/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/perfbench/config" # the go command's own state stays in the checkout too
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
