#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from anywhere; build outputs, the Go build cache and
# the compiler's temporary files stay under .bench_build/ at the repository
# root.
#
#   bash perfbench/run.sh -workload shuffle -seed 1 -seconds 20 -trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
