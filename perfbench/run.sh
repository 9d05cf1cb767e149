#!/usr/bin/env bash
# Builds the benchmark and the programs under test (tocttou, tocttoud)
# from the checkout's source, then runs the benchmark from the checkout
# root. Everything built or written stays under .bench_build/.
#
#   bash perfbench/run.sh --workload cli-long-points --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --steady --runs 5 --seconds 30
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
(cd "$root" && go build -o "$out/bin/" ./cmd/tocttou ./cmd/tocttoud) >&2
cd "$root"
exec "$out/bin/perfbench" -root "$root" "$@"
