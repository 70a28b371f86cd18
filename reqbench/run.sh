#!/usr/bin/env bash
# Build the request-level benchmark from source, then run it with the
# given arguments. Run from the repository root:
#
#   bash reqbench/run.sh --workload grid-fptas --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result. Fails (non-zero, no result) when the sources
# it builds against are missing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
command -v dune >/dev/null || { echo "reqbench: dune not found on PATH" >&2; exit 2; }
# Keep the build inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . --display quiet ./reqbench/main.exe 1>&2
exec ./_build/default/reqbench/main.exe "$@"
