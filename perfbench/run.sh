#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from, then
# runs it with the given arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload anneal-ami33 --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and the service workload's state all
# live under $CARGO_TARGET_DIR (default .bench_build), inside the
# checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --tmp "$out/tmp" "$@"
