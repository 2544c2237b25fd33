#!/usr/bin/env bash
# The repository's benchmark: builds the libraries and the driver, then runs
# the workloads. Run from the repository root.
#
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is its JSON result
#   bench/e2e/run.sh [--repeat=N] [--seed=N] [--seconds=S]
#       every workload, untraced then traced, N times (default 3)
#   bench/e2e/run.sh --calibrate
#       suggests BENCHMARK.json bounds from seeds 1..10 per workload
#   bench/e2e/run.sh --smoke
#       every workload at 1/10 length, both passes, with a schema check
#
# See bench/e2e/README.md for the workloads and metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no repository sources under $root" >&2
  exit 1
fi

# Build output goes to a log, shown only on failure: stdout carries results.
log="$build/build.log"
mkdir -p "$build"
if ! {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      -DHAECHI_TRACE=ON -DHAECHI_WATCHDOG=ON -DBUILD_TESTING=OFF
  fi
  cmake --build "$build" --target haechi_harness -j "$(nproc)"
  if [[ ! -f "$build/e2e/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build/e2e" -DCMAKE_BUILD_TYPE=Release \
      -DHAECHI_BUILD_DIR="$build"
  fi
  cmake --build "$build/e2e" -j "$(nproc)"
} >"$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

driver="$build/e2e/haechi_e2e"
if [[ " $* " == *" --workload"* ]]; then
  exec "$driver" "$@"
fi
exec python3 "$here/run.py" --driver "$driver" "$@"
