#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through:
#
#   bash bench/run.sh --workload live-ingest --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                      # every workload, one process each
#   bash bench/run.sh --compare A.jsonl B.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the go command's configuration
# and telemetry, temporary files, window stores.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$out/emprof-bench" .)
exec "$out/emprof-bench" "$@"
