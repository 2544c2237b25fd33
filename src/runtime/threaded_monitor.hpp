// The data-node QoS monitor on real threads (paper §II-E): the threaded
// adapter around core::MonitorCore, which holds every protocol rule.
//
// The adapter re-hosts the core on a wall Clock with two
// runtime::PeriodicTimer threads (period boundary and check tick) that
// serialise on one mutex, and realises the core's pool operations on the
// shared region's K pool shards:
//
//   * the period boundary installs each shard's share of the new pool with
//     an atomic *exchange*, so the old period's final word is read and the
//     new pool installed in one step — a client FAA can land before or
//     after the boundary but never be silently overwritten;
//   * token conversion installs each share with a CAS loop that
//     re-witnesses the pre-conversion word on every failure, so grants
//     racing the conversion stay exactly accounted in the ledger;
//   * after every check tick, lopsided shards are evened out (rebalance);
//   * control messages are delivered to engines by direct call from the
//     monitor thread (the two-sided SEND), never the other way around —
//     engines only touch the shared region, so the lock order
//     monitor-mutex -> engine-mutex is acyclic.
//
// Per-shard raw-difference telescoping keeps the core's PeriodLedger
// conservation identities *exact* here too, which is what
// tests/runtime_stress_test.cpp and the differential audit lean on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/control/controller.hpp"
#include "core/monitor_core.hpp"
#include "obs/trace.hpp"
#include "runtime/clock.hpp"
#include "runtime/threaded_engine.hpp"
#include "runtime/threaded_fabric.hpp"

namespace haechi::runtime {

/// What admission hands a threaded client: its report-slot index (also
/// used as the fabric port for per-client op stats). The pool word needs
/// no address — the shared region is the address space.
struct ThreadedWiring {
  std::size_t slot = 0;
};

class ThreadedMonitor final : private core::MonitorPort,
                              private core::MonitorCore {
 public:
  using MonitorCore::PeriodHook;
  using MonitorCore::PeriodLedger;
  using MonitorCore::Stats;

  /// Threaded-runtime-only contention telemetry. Separate from Stats,
  /// which is shared with the sim monitor and compared field-for-field by
  /// the differential tests.
  struct RuntimeStats {
    std::uint64_t convert_cas_retries = 0;  // conversion CAS lost to a FAA
    std::uint64_t shard_samples = 0;        // kShardSample events emitted
  };

  ThreadedMonitor(Clock& clock, obs::Recorder* recorder,
                  const core::QosConfig& config, ThreadedFabric& fabric,
                  double profiled_global_iops, double profiled_local_iops);
  ~ThreadedMonitor() override;

  ThreadedMonitor(const ThreadedMonitor&) = delete;
  ThreadedMonitor& operator=(const ThreadedMonitor&) = delete;

  /// Admits a client (both capacity constraints enforced) and allocates
  /// its report slot. Bind the engine before Start() so control messages
  /// can be delivered.
  Result<ThreadedWiring> AdmitClient(ClientId client, std::int64_t reservation,
                                     std::int64_t limit);
  /// Binds the admitted client's engine for control-message delivery.
  Status BindEngine(ClientId client, ThreadedEngine* engine);

  /// Wires the closed-loop controller (may be null to unwire). PlanBoundary
  /// runs under the monitor mutex at each boundary; `readmit` (optional)
  /// runs on the monitor's timer thread holding the mutex, so it must
  /// defer the actual re-admission.
  void SetController(core::control::QosController* controller,
                     std::function<void(ClientId)> readmit);
  void SetPeriodHook(PeriodHook fn);

  /// Starts period 1 immediately and runs until Stop().
  void Start();
  void Stop();

  /// Control-plane survivability (DESIGN.md §15) on wall-clock threads:
  /// Crash() disarms the timers and drops the live client table (see
  /// core::MonitorCore::Crash); Recover() restarts immediately from the
  /// checkpoint (the caller owns the outage duration). Must not be called
  /// after Stop().
  void Crash();
  void Recover();

  [[nodiscard]] Stats StatsSnapshot() const;
  [[nodiscard]] RuntimeStats RuntimeStatsSnapshot() const;
  [[nodiscard]] std::vector<PeriodLedger> LedgerSnapshot() const;

 private:
  // core::MonitorPort (called with mu_ held).
  [[nodiscard]] SimTime Now() const override { return now_; }
  [[nodiscard]] std::uint64_t ReadSlot(std::size_t slot) const override {
    return region_.slot(slot).Read().packed;
  }
  void PrimeSlot(std::size_t slot, std::uint64_t packed) override {
    region_.slot(slot).Write(packed, now_);
  }
  PoolTouch SamplePool() override;
  PoolTouch ExchangePool(std::int64_t value) override;
  PoolTouch InstallPool(std::int64_t value) override;
  void Deliver(Channel channel, ClientId client,
               const core::ControlMsg& msg) override;
  void Emit(obs::ActorKind kind, obs::EventType type, std::uint32_t period,
            std::int64_t a, std::int64_t b, std::int64_t c) override;

  /// Takes the mutex and latches the protocol time every core call of
  /// this critical section sees.
  std::unique_lock<std::mutex> Lock();
  void RebalanceLocked();
  /// Shard `shard`'s share of `total` under the monitor's even split.
  [[nodiscard]] std::int64_t ShardShare(std::int64_t total,
                                        std::size_t shard) const;

  Clock& clock_;
  obs::Recorder* recorder_;
  SharedRegion& region_;  // the fabric's region: the monitor's own memory

  mutable std::mutex mu_;
  SimTime now_ = 0;
  bool running_ = false;
  RuntimeStats runtime_stats_;
  /// Per-shard last value the monitor wrote or witnessed; raw-difference
  /// telescoping against it keeps the ledger's `granted` exact on the
  /// shard sum across samples, conversions, rebalances and boundaries.
  std::vector<std::int64_t> shard_last_pool_;

  std::unique_ptr<PeriodicTimer> period_timer_;
  std::unique_ptr<PeriodicTimer> check_timer_;
};

}  // namespace haechi::runtime
