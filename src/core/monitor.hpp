// The data-node QoS monitor on simulated verbs (paper §II-E): the sim
// adapter around MonitorCore, which holds every protocol rule.
//
// What this adapter adds is transport only:
//   * the control block — word 0 the global pool, words 1..kMaxClients the
//     report slots — registered as one MR in the data node's protection
//     domain, so clients reach it with one-sided FAA and WRITE;
//   * the pool observation path: a local load, or (config.loopback_cas) a
//     loopback RDMA CAS(0, 0) through the NIC, whose result lags;
//   * two-sided control SENDs on each client's monitor-side ctrl QP;
//   * sim::PeriodicTimers for the period boundary and the check tick, and
//     the scheduled Start/Recover instants.
// Admission control (AdmissionController) guards both capacity constraints
// before a client is wired in.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/monitor_core.hpp"
#include "core/wire.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace haechi::core {

class QosMonitor final : private MonitorPort, public MonitorCore {
 public:
  /// Capacities in IOPS, as profiled (Experiment Set 1). `node` is the
  /// data node; the control block MR lives in its protection domain.
  QosMonitor(sim::Simulator& sim, const QosConfig& config, rdma::Node& node,
             double profiled_global_iops, double profiled_local_iops);

  QosMonitor(const QosMonitor&) = delete;
  QosMonitor& operator=(const QosMonitor&) = delete;

  /// Admits a client (both capacity constraints enforced) and binds its
  /// control channel. `ctrl_qp` is the monitor-side QP connected to the
  /// engine's control QP. Reservation/limit in I/Os per period.
  /// Returns the wiring the engine needs for its one-sided QoS ops.
  Result<QosWiring> AdmitClient(ClientId client, std::int64_t reservation,
                                std::int64_t limit,
                                rdma::QueuePair& ctrl_qp);

  /// Multi-monitor deployments: the actor id this monitor stamps on its
  /// trace events (the data-node index). Must be set before Start(), or
  /// several monitors would interleave one per-actor ring and corrupt the
  /// per-actor seq streams the audit relies on.
  void SetTraceActor(std::uint32_t actor) { trace_actor_ = actor; }

  /// Starts period 1 at absolute time `at` and runs until Stop().
  void Start(SimTime at);
  void Stop();

  /// Crash() stops the timers and drops the live client table (see
  /// MonitorCore::Crash); Recover(at) restarts the monitor from its
  /// checkpoint at `at`.
  void Crash();
  void Recover(SimTime at);

  /// Current pool word (signed; negative after over-draining FAAs).
  [[nodiscard]] std::int64_t GlobalPoolValue() const { return ReadPoolWord(); }

 private:
  // MonitorPort.
  [[nodiscard]] SimTime Now() const override { return sim_.Now(); }
  [[nodiscard]] std::uint64_t ReadSlot(std::size_t slot) const override;
  void PrimeSlot(std::size_t slot, std::uint64_t packed) override;
  PoolTouch SamplePool() override;
  [[nodiscard]] std::int64_t ObservePool(std::int64_t sampled) override;
  PoolTouch ExchangePool(std::int64_t value) override;
  PoolTouch InstallPool(std::int64_t value) override;
  void Deliver(Channel channel, ClientId client,
               const ControlMsg& msg) override;
  void Emit(obs::ActorKind kind, obs::EventType type, std::uint32_t period,
            std::int64_t a, std::int64_t b, std::int64_t c) override;

  [[nodiscard]] std::int64_t ReadPoolWord() const;
  /// Writes the pool word and returns what it replaced, plus the grants
  /// since the previous touch.
  PoolTouch WritePoolWord(std::int64_t value);
  void StartTimers();

  sim::Simulator& sim_;
  rdma::Node& node_;
  bool running_ = false;
  std::uint32_t trace_actor_ = 0;

  // Control block: word 0 = global pool, words 1..kMaxClients = report
  // slots. Lives in registered memory so clients reach it one-sided.
  std::vector<std::byte> control_block_;
  const rdma::MemoryRegion* control_mr_ = nullptr;
  // The pool word as last written or read by the monitor; every decrease
  // since is client grants (the word is local memory, so this is exact
  // even when S1 observes through the loopback CAS).
  std::int64_t last_pool_ = 0;

  // Loopback-CAS observation state (config.loopback_cas).
  rdma::QueuePair* loop_qp_ = nullptr;
  rdma::QueuePair* loop_peer_qp_ = nullptr;
  bool loop_cas_in_flight_ = false;
  std::int64_t loop_observed_pool_ = 0;

  std::unique_ptr<sim::PeriodicTimer> period_timer_;
  std::unique_ptr<sim::PeriodicTimer> check_timer_;
  std::uint64_t next_wr_id_ = 1;
};

}  // namespace haechi::core
