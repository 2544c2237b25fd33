// Concurrent-runtime experiment assembly: the threaded twin of Experiment.
//
// Maps the same ExperimentConfig onto src/runtime/ — a ThreadedFabric
// (process-shared memory region, pool sharded per qos.pool_shards), a
// ThreadedMonitor on wall-clock timers, and a pool of N worker threads
// (config.runtime_workers; 0 = one per client) multiplexing the clients'
// 4 KB record-read loops through their ThreadedEngines via the
// non-blocking TryAcquireBatch event loop. Used by `haechi_sim
// --runtime=threads` and the runtime differential tests.
//
// Scope: the threaded backend runs the QoS protocol proper. Scripted
// *crash-only* client faults are supported (the engine stops silently at
// crash_at; the monitor's report lease reclaims the residual), as are
// monitor outages (FaultPlan::MonitorCrashAt with a finite recover_at — a
// driver thread crashes and recovers the ThreadedMonitor at the scripted
// instants; DESIGN.md §15), the SLO watchdog and the closed-loop
// controller — the run plane's recorder tap serialises multi-threaded
// emitters through this builder's mutex before the single-threaded
// watchdog. Features that belong to the simulated cluster — transport-level
// fault plans, client restarts, background traffic, the two-sided I/O
// path, bare mode — and a write mix the read-only worker loop would ignore
// are rejected up front (HAECHI_EXPECTS) rather than half-supported.
//
// Determinism caveat: results are statistically, not bitwise, reproducible.
// The same config and seed produce the same admitted reservations and the
// same conservation identities (checked by the audit), but per-period
// completion counts vary with scheduling. Compare distributions and
// invariants across runtimes, not event streams.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "harness/experiment.hpp"
#include "harness/run_plane.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/clock.hpp"
#include "runtime/threaded_engine.hpp"
#include "runtime/threaded_fabric.hpp"
#include "runtime/threaded_monitor.hpp"
#include "stats/period_series.hpp"

namespace haechi::harness {

/// The threaded backend's result: the shared RunResult (same shape as the
/// sim's; series rows are QoS periods warmup+1 .. warmup+measure) plus the
/// runtime's own telemetry.
struct ThreadedExperimentResult : RunResult {
  using RunResult::RunResult;

  /// The monitor's per-period token conservation ledger.
  std::vector<runtime::ThreadedMonitor::PeriodLedger> ledger;
  /// Wall-clock duration of the run (ns, Clock epoch-relative).
  SimDuration wall_time = 0;

  /// One worker thread's occupancy over the run (single-writer rows, read
  /// after the join): how often the pool's threads did useful work vs.
  /// parked with every owned client blocked.
  struct WorkerStats {
    std::uint64_t batches = 0;      // kToken grants serviced
    std::uint64_t ios = 0;          // record reads issued
    std::uint64_t idle_sleeps = 0;  // no-progress 100 us parks
  };
  std::vector<WorkerStats> worker_stats;
  /// Shard-contention telemetry (threaded runtime only).
  runtime::ThreadedMonitor::RuntimeStats monitor_runtime_stats;
  std::vector<runtime::ThreadedEngine::RuntimeStats> engine_runtime_stats;
  /// Report-slot seqlock writer CAS retries summed over all slots.
  std::uint64_t report_write_retries = 0;
};

class ThreadedExperiment {
 public:
  explicit ThreadedExperiment(ExperimentConfig config);
  ~ThreadedExperiment();

  ThreadedExperiment(const ThreadedExperiment&) = delete;
  ThreadedExperiment& operator=(const ThreadedExperiment&) = delete;

  /// Builds the threaded cluster, runs warm-up plus the measurement
  /// window in real time, joins every thread, and returns the results.
  ThreadedExperimentResult Run();

  // --- introspection for tests (valid after Run(); all threads joined) ----
  [[nodiscard]] runtime::ThreadedMonitor* monitor() { return monitor_.get(); }
  [[nodiscard]] runtime::ThreadedEngine& engine(std::size_t i) {
    return *engines_.at(i);
  }
  [[nodiscard]] runtime::ThreadedFabric& fabric() { return *fabric_; }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  // The run plane's parts (see RunPlane); the metrics' rollups add the
  // runtime's shard FAA mix, seqlock retries and worker occupancy.
  [[nodiscard]] obs::Recorder* recorder() { return plane_.recorder(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return plane_.metrics(); }
  [[nodiscard]] obs::SloWatchdog* watchdog() { return plane_.watchdog(); }
  [[nodiscard]] core::control::QosController* controller() {
    return plane_.controller();
  }
  [[nodiscard]] const std::string& alerts_jsonl() const {
    return plane_.alerts_jsonl();
  }

 private:
  void WorkerLoop(std::size_t worker);

  ExperimentConfig config_;
  std::size_t warmup_periods_ = 0;
  /// Worker threads in the pool; clients are owned round-robin
  /// (client i belongs to worker i % worker_count_), which keeps each
  /// completions_ row single-writer.
  std::size_t worker_count_ = 0;
  runtime::Clock clock_;
  /// Serialises the recorder tap: the monitor's timer threads and every
  /// worker-owned engine emit concurrently, and the watchdog is
  /// single-threaded by contract.
  std::mutex watchdog_mu_;
  /// Declared before the fabric, monitor and engines, which hold its
  /// recorder, so it outlives them. Its registry is written by the monitor
  /// thread (period hook) during the run and by Run() after the join —
  /// never concurrently.
  RunPlane plane_;
  std::unique_ptr<runtime::ThreadedFabric> fabric_;
  std::unique_ptr<runtime::ThreadedMonitor> monitor_;
  std::vector<std::unique_ptr<runtime::ThreadedEngine>> engines_;
  std::vector<std::size_t> ports_;
  /// Scripted crash time per client (kSimTimeMax = none).
  std::vector<SimTime> crash_at_;
  /// completions_[client][period] — written only by that client's owning
  /// worker thread, read by Run() after the join.
  std::vector<std::vector<std::int64_t>> completions_;
  /// worker_stats_[worker] — written only by that worker, read after join.
  std::vector<ThreadedExperimentResult::WorkerStats> worker_stats_;
  std::vector<std::thread> workers_;
};

}  // namespace haechi::harness
