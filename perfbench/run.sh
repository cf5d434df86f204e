#!/usr/bin/env bash
# Builds burstd and the benchmark from the source tree this is run in, then
# runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload firehose --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady -n 10 -workloads firehose -- bash perfbench/run.sh
#   bash perfbench/run.sh summarize .bench_build/perfbench/trace-firehose-1.json
#
# Everything it writes stays under .bench_build/: binaries, the Go build
# cache, the stores the runs create, and the traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
bin="$build/perfbench-bin"
mkdir -p "$bin" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# Telemetry on (the default "local" mode) makes every go command start a
# detached upload process that outlives it; the GOTELEMETRY variable is
# read-only and does not stop that. "go telemetry off" writes the mode
# into $HOME, which is under .bench_build, and starts no such process.
go telemetry off

go build -o "$bin/burstd" ./cmd/burstd
(cd perfbench && go build -o "$bin/perfbench" .)

case "${1:-}" in
steady | summarize) exec "$bin/perfbench" "$@" ;;
esac
exec "$bin/perfbench" "$@" -burstd "$bin/burstd" -work "$build/perfbench"
