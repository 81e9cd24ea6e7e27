#!/usr/bin/env bash
# Builds the hgbench benchmark from source and runs it from the root of
# the checkout that holds this directory:
#
#   bash hgbench/run.sh --workload viic-check --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and run files all stay under
# .bench_build/ in the checkout. Outside a full checkout (no go.mod one
# level up) the build fails and the script exits nonzero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd hgbench && go build -o "$out/hgbench" .) >&2
exec "$out/hgbench" --out "$out" "$@"
