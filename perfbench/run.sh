#!/usr/bin/env bash
# Builds the benchmark command and the dapcollect collector from source,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest-bin-wal --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every file a run writes stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout. Build logs go to standard error so
# the result line is the last line of standard output.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/dapcollect" repro/cmd/dapcollect) >&2
exec "$out/perfbench" -collector "$out/dapcollect" -workdir "$out" "$@"
