#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload tsvc-unroll8 --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=

go -C "$root/benchmark" build -buildvcs=false -o "$out/benchmark" .

# Provenance: the revision and dirty flag of the checkout, when it is a
# git work tree; git never looks above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
rev=unknown
dirty=unknown
if r="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
  rev="$r"
  if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then dirty=true; else dirty=false; fi
fi

cd "$root"
exec "$out/benchmark" --rev "$rev" --dirty "$dirty" "$@"
