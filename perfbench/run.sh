#!/usr/bin/env bash
# Build the benchmark program from source, then run it.
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It works from any directory: it first changes to the repository root.
# The build's progress and errors go to stderr; the program's last stdout line is the JSON result.  A failed
# build exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build product inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
