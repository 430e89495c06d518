#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it runs in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload sim-write --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache,
# node data and span files stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/perfbench"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly
export GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perfbench/perfbench" .)
cd "$root"
exec "$out/perfbench/perfbench" --dir "$out/perfbench" "$@"
