#!/usr/bin/env bash
# Builds the round benchmark from source into .bench_build/ at the root
# of the checkout and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload device-rounds --seed 1 --seconds 10 --trace 0
#
# Every file the build or the run writes (Go build cache, binary, store
# directories, span dumps) stays under .bench_build/. A checkout without
# the drdp module beside perfbench/ fails the build and exits non-zero.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/home/go"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
