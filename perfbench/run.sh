#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload resident-dense --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh summarize .bench_build/traces/wire-q8-seed1.jsonl
#   bash perfbench/run.sh compare before.out after.out
#
# Everything the build writes (Go build cache, binary) and every trace
# stays under .bench_build/ at the checkout root. The build never reaches
# the network: the benchmark module only needs the repository module
# beside it.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
