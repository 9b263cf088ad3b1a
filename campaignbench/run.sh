#!/usr/bin/env bash
# Builds the campaign benchmark from the sources in this checkout and
# runs it with the given arguments, from the checkout's root:
#
#   bash campaignbench/run.sh --workload stencil-cold --seed 0 --seconds 55 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the checkout. The build needs the repository around
# this directory (go.mod replaces hpctradeoff with ..), so it fails, and
# the script exits non-zero, when this directory stands alone.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/campaignbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0
(cd "$root/campaignbench" && go build -o "$out/campaignbench" .) >&2
cd "$root"
exec "$out/campaignbench" "$@"
