#!/usr/bin/env bash
# Builds cmd/bench from source into .bench_build/ of the checkout this script
# lives in and runs it with the given arguments from the checkout's root.
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bench" .) >&2
cd "$root"
exec "$out/bench" "$@"
