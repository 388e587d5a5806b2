#!/usr/bin/env bash
# Builds the live benchmark from the sources of this checkout and runs it.
#
#   bash livebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. The binary, the go command's
# caches, the result records and the span logs all go under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so nothing is read
# or written outside the checkout. Build output goes to standard error;
# standard output carries the benchmark's report, whose last line is the
# JSON summary.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac

export GOCACHE=$build/go/cache
export GOMODCACHE=$build/go/mod
export GOPATH=$build/go/path
export GOTMPDIR=$build/go/tmp
export HOME=$build/go/home
export XDG_CONFIG_HOME=$build/go/home/.config
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
mkdir -p "$GOCACHE" "$GOMODCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME"

# Stamp results with the commit, or "unknown" outside a git repository.
commit=unknown
if head=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$head
	if [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		commit=$commit-dirty
	fi
fi

go -C "$here" build -o "$build/livebench" . >&2
exec "$build/livebench" --out "$build" --commit "$commit" "$@"
