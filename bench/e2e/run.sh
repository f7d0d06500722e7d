#!/usr/bin/env bash
# Build hwts-serve and the served-request benchmark from source, then run
# the benchmark.  Run from the repository root:
#
#   bash bench/e2e/run.sh --workload point-kv [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to stderr, so the benchmark's result stays the last
# line of standard output.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/hwts_serve.ml ] || [ ! -d lib/serve ]; then
  echo "bench/e2e/run.sh: run from the root of the hwts repository" >&2
  exit 2
fi

# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/hwts_serve.exe ./bench/e2e/hwts_bench.exe 1>&2

exec ./_build/default/bench/e2e/hwts_bench.exe "$@"
