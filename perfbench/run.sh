#!/usr/bin/env bash
# Builds the perfbench program and the serving binaries (pmlmpi-server,
# pmlmpi-gateway) from this checkout's sources into .bench_build/, then runs
# perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-select --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact, the Go build cache included, stays under
# .bench_build/ so a run reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/" . \
	github.com/pml-mpi/pmlmpi/cmd/pmlmpi-server \
	github.com/pml-mpi/pmlmpi/cmd/pmlmpi-gateway)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
