#!/usr/bin/env bash
# Builds the workload benchmark from source and runs it with the given
# flags. Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload hammer --seed 1 --seconds 22 --trace 0
#
# The binary, the Go build cache, the go command's config (where its
# telemetry counters go) and the traced run's spans all live in
# .bench_build at the root, so nothing outside the checkout is written.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -spans "$out/spans.jsonl" "$@"
