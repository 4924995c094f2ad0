#!/usr/bin/env bash
# Builds rfidserve and perfbench from the checkout this script lives in,
# then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact stays under .bench_build/ at the checkout
# root: the Go build cache, the binaries, and the per-run snapshot, WAL
# and spill directories (perfbench removes those when it exits).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
cd "$root/perfbench"
go build -o "$out/rfidserve" repro/cmd/rfidserve
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -server "$out/rfidserve" -work "$out/work" "$@"
