#!/usr/bin/env bash
# Entry point named by BENCHMARK.json.  Run from the repository root:
#
#   bash bench/perf/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Builds the ledger from source (the first run in a fresh checkout
# compiles the libraries too), then runs one workload in its own
# process.  The last line of standard output is the JSON summary.
# Temporary files and any cache stay inside the checkout, under the
# ignored bench/perf/out/.
set -euo pipefail
out="$(pwd)/bench/perf/out"
mkdir -p "$out/tmp"
export DUNE_CACHE=disabled TMPDIR="$out/tmp" XDG_CACHE_HOME="$out/cache"
dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
