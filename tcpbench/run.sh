#!/usr/bin/env bash
# Builds the TCP group's daemons (cmd/memnoded, cmd/siftd) and the
# benchmark program from this checkout's sources, then runs it.
#
#   bash tcpbench/run.sh --workload put --seed 1 --seconds 20 --trace 0
#   bash tcpbench/run.sh compare a.json b.json
#
# Run from the root of a checkout. Every build product, the Go build cache,
# daemon logs and traces stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/siftd" || ! -d "$root/cmd/memnoded" ]]; then
	echo "tcpbench: run from the root of a sift checkout (go.mod, cmd/siftd, cmd/memnoded)" >&2
	exit 2
fi

out="$root/.bench_build/tcpbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/" ./cmd/memnoded ./cmd/siftd
(cd "$root/tcpbench" && go build -o "$out/bin/tcpbench" .)

exec "$out/bin/tcpbench" -bin "$out/bin" -out "$out" "$@"
