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
#   tools/run_ctest_matrix.sh asan-<label> tsan-<label>
#       focused entries: the asan/tsan preset restricted to one ctest label
#       (tests/CMakeLists.txt), the quick gate for changes in that area:
#         runtime        src/runtime (runtime_diff, _stress, _property)
#         cluster        src/cluster (cluster_test, cluster_property_test)
#         controller     src/core/control (controller_test)
#         survivability  monitor crash-recovery, degraded mode, membership
#                        and failover (survivability_test, chaos_test; tsan
#                        covers the threaded Crash/Recover races)
#         monitor        core::MonitorCore and its sim/threaded adapters
#         engine         core::EngineCore and its sim/threaded adapters
#         harness        the run plane and the three experiment builders
#                        (harness, integration, cluster, runtime_diff,
#                        trace and run_plane tests, and the haechi_sim
#                        flag matrix)
#   tools/run_ctest_matrix.sh tsan-runtime-sharded
#       tighter than tsan-runtime: only the sharded-pool / batched-fetch /
#       rebalance tests — the gate for pool-shard and fetch-batch changes
#   tools/run_ctest_matrix.sh asan-sim
#       the asan preset restricted to the simulated I/O path (sim, station,
#       rdma, fabric_stress, fault_injection, chaos and alloc tests) — the
#       gate for src/sim, src/net, src/rdma and op-record pool changes
#   tools/run_ctest_matrix.sh trace-spans notrace
#       the span-pipeline gate: the trace preset restricted to the span
#       suites (trace_test, span_test), then the notrace preset proving the
#       whole pipeline compiles out
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
  # Focused entries are aliases, not CMake presets: build the asan/tsan/
  # trace preset but run only part of the suite. `asan-<label>` and
  # `tsan-<label>` select a ctest label (tsan-runtime, asan-harness, ...).
  config_preset="$preset"
  ctest_args=()
  case "$preset" in
    tsan-runtime-sharded)
      config_preset=tsan
      ctest_args=(-R 'Shard|Rebalance|BatchedFetch') ;;
    asan-sim)
      config_preset=asan
      ctest_args=(-R '^(sim|station|rdma|fabric_stress|fault_injection|chaos|alloc)_test\.') ;;
    trace-spans)
      config_preset=trace
      ctest_args=(-L span) ;;
    asan-* | tsan-*)
      config_preset="${preset%%-*}"
      ctest_args=(-L "${preset#*-}") ;;
  esac
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
