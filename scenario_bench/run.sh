#!/usr/bin/env bash
# Builds the scenario benchmark (first run only; later runs are a no-op
# build check) and runs it. Run from the repository root:
#   bash scenario_bench/run.sh --workload fig5-attack --seed 1 \
#        --seconds 30 --trace 0
# Build output goes to stderr so the result stays the last stdout line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=.bench_build
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target scenario_bench -j 2 >&2
exec "$build/scenario_bench" "$@" --spans-dir "$build/spans"
