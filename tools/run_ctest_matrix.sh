#!/usr/bin/env bash
# Configure, build and run the full test suite under every CMake preset
# (default, asan, tsan, trace, notrace — see CMakePresets.json). The trace
# preset pins the QoS flight recorder AND the online SLO watchdog ON;
# notrace compiles both out, proving the zero-cost contracts
# (bench_overhead's static_assert, the watchdog's compiled-out wiring) and
# the trace-gated test skips. Usage:
#
#   tools/run_ctest_matrix.sh              # the whole matrix
#   tools/run_ctest_matrix.sh asan         # one preset
#   tools/run_ctest_matrix.sh tsan-runtime # focused entry: the tsan preset
#                                          # restricted to the concurrent
#                                          # runtime tests (runtime_diff,
#                                          # runtime_stress,
#                                          # runtime_property) — the quick
#                                          # gate for src/runtime changes
#   tools/run_ctest_matrix.sh tsan-runtime-sharded
#                                          # tighter still: only the
#                                          # sharded-pool / batched-fetch /
#                                          # rebalance tests under tsan —
#                                          # the gate for pool-shard and
#                                          # fetch-batch changes
#   tools/run_ctest_matrix.sh asan-cluster tsan-cluster
#                                          # focused entries: the asan/tsan
#                                          # presets restricted to the
#                                          # cluster suites (cluster_test,
#                                          # cluster_property_test) — the
#                                          # quick gate for src/cluster
#                                          # changes
#   tools/run_ctest_matrix.sh asan-controller tsan-controller
#                                          # focused entries: the asan/tsan
#                                          # presets restricted to the
#                                          # closed-loop control suite
#                                          # (controller_test) — the quick
#                                          # gate for src/core/control
#                                          # changes
#   tools/run_ctest_matrix.sh asan-survivability tsan-survivability
#                                          # focused entries: the asan/tsan
#                                          # presets restricted to the
#                                          # survivability suites
#                                          # (survivability_test,
#                                          # chaos_test) — the gate for
#                                          # monitor crash-recovery,
#                                          # degraded-mode and membership/
#                                          # failover changes (tsan covers
#                                          # the threaded Crash/Recover
#                                          # races)
#   tools/run_ctest_matrix.sh asan-sim      # focused entry: the asan
#                                          # preset restricted to the
#                                          # simulated I/O path (sim,
#                                          # station, rdma, fabric_stress,
#                                          # fault_injection, chaos and
#                                          # alloc tests) — the gate for
#                                          # src/sim, src/net, src/rdma
#                                          # and op-record pool changes
#   tools/run_ctest_matrix.sh trace-spans notrace
#                                          # the span-pipeline gate: the
#                                          # trace preset restricted to the
#                                          # span-labelled suites
#                                          # (trace_test, span_test), then
#                                          # the notrace preset proving the
#                                          # whole pipeline compiles out
#   JOBS=8 tools/run_ctest_matrix.sh       # override parallelism
#   CTEST_TIMEOUT=900 tools/run_ctest_matrix.sh
#                                          # override the per-test timeout
#                                          # (seconds; default 600)
#   BENCH=1 tools/run_ctest_matrix.sh      # also run the bench regression
#                                          # gates (tools/bench_regress:
#                                          # BENCH_qos.json sim figures +
#                                          # BENCH_runtime.json threads run +
#                                          # BENCH_cluster.json borrow gate +
#                                          # the BENCH_overhead.json span-
#                                          # pipeline slowdown gate)
#
# Exits non-zero on the first failing preset (or a bench regression).
set -euo pipefail

cd "$(dirname "$0")/.."

PRESETS=("$@")
if [[ ${#PRESETS[@]} -eq 0 ]]; then
  PRESETS=(default asan tsan trace notrace)
fi
JOBS="${JOBS:-$(nproc)}"

for preset in "${PRESETS[@]}"; do
  # tsan-runtime is a focused alias, not a CMake preset: build the tsan
  # preset but run only the concurrent-runtime tests.
  config_preset="$preset"
  ctest_args=()
  if [[ "$preset" == "tsan-runtime" ]]; then
    config_preset=tsan
    ctest_args=(-L runtime)
  elif [[ "$preset" == "tsan-runtime-sharded" ]]; then
    config_preset=tsan
    ctest_args=(-R 'Shard|Rebalance|BatchedFetch')
  elif [[ "$preset" == "asan-cluster" ]]; then
    config_preset=asan
    ctest_args=(-L cluster)
  elif [[ "$preset" == "tsan-cluster" ]]; then
    config_preset=tsan
    ctest_args=(-L cluster)
  elif [[ "$preset" == "asan-controller" ]]; then
    config_preset=asan
    ctest_args=(-L controller)
  elif [[ "$preset" == "tsan-controller" ]]; then
    config_preset=tsan
    ctest_args=(-L controller)
  elif [[ "$preset" == "asan-survivability" ]]; then
    config_preset=asan
    ctest_args=(-L survivability)
  elif [[ "$preset" == "tsan-survivability" ]]; then
    config_preset=tsan
    ctest_args=(-L survivability)
  elif [[ "$preset" == "asan-sim" ]]; then
    config_preset=asan
    ctest_args=(-R '^(sim|station|rdma|fabric_stress|fault_injection|chaos|alloc)_test\.')
  elif [[ "$preset" == "trace-spans" ]]; then
    config_preset=trace
    ctest_args=(-L span)
  fi
  echo "==== [$preset] configure ===="
  cmake --preset "$config_preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$config_preset" -j "$JOBS"
  echo "==== [$preset] ctest ===="
  # Fail fast (the matrix reruns cheaply; a red entry should stop the
  # sweep immediately) and bound every test: sanitizer presets can turn a
  # livelock into an hours-long hang without the per-test timeout.
  ctest --preset "$config_preset" -j "$JOBS" --no-tests=error \
    --stop-on-failure --timeout "${CTEST_TIMEOUT:-600}" \
    "${ctest_args[@]}"
done

# Opt-in bench regression gate: re-runs the deterministic figure suite and
# compares against the committed BENCH_qos.json within a tolerance band.
if [[ "${BENCH:-0}" == "1" ]]; then
  echo "==== bench regression gate ===="
  cmake --build --preset default -j "$JOBS" --target bench_regress \
    bench_overhead
  ./build/tools/bench_regress --overhead-bin=./build/bench/bench_overhead
fi

echo "==== matrix passed: ${PRESETS[*]} ===="
