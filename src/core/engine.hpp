// The client-side QoS engine (paper §II-D).
//
// Every application I/O passes through Submit(). The engine:
//
//  * gates each I/O on a token — a reservation token (xi_reservation,
//    granted by the monitor each period) or a global token fetched from
//    the data node's pool with a remote FAA in batches of B (step T3);
//  * decays unused reservation tokens every delta = 1 ms toward the
//    backlog bound X = R_i - rho_i(t), returning slack to the system
//    (client token management);
//  * once signalled, silently reports {residual reservation, completed
//    I/Os} every 1 ms with a single 8-byte one-sided WRITE (client
//    reporting);
//  * enforces the client's per-period limit L_i by throttling;
//  * parks excess requests in a bounded queue — a runaway client cannot
//    push unbacked I/Os to the data node (isolation, §II-F).
//
// None of these paths involve the data-node CPU: control messages are the
// only two-sided traffic and they originate at the monitor.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/wire.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace haechi::core {

class ClientQosEngine {
 public:
  /// Completion callback for one application I/O.
  using CompleteFn = sim::Callback;

  /// The backend's completion handle for one issued I/O: two words naming
  /// the engine and the I/O's slot in its in-flight table, so a backend can
  /// carry it inside its own inline callback.
  class IoDone {
   public:
    void operator()() const { engine_->OnBackendDone(slot_); }

   private:
    friend class ClientQosEngine;
    IoDone(ClientQosEngine* engine, std::uint32_t slot)
        : engine_(engine), slot_(slot) {}
    ClientQosEngine* engine_;
    std::uint32_t slot_;
  };

  /// Issues one data I/O (GET or PUT); must call `done` exactly once at
  /// completion, or return a non-OK status synchronously. QoS accounting
  /// is op-agnostic: reads and writes consume tokens identically (both are
  /// record-sized one-sided ops).
  using IoBackendFn =
      std::function<Status(std::uint64_t key, bool is_write, IoDone done)>;

  struct Stats {
    std::uint64_t periods_started = 0;
    std::int64_t completed_this_period = 0;   // N_i
    std::int64_t issued_this_period = 0;
    std::int64_t completed_total = 0;
    std::uint64_t faa_ops = 0;
    std::uint64_t report_writes = 0;
    std::uint64_t rejected_submits = 0;
    std::uint64_t limit_throttle_events = 0;
    std::int64_t tokens_from_reservation = 0;
    std::int64_t tokens_from_pool = 0;
    std::uint64_t over_reserve_hints = 0;
    /// Token fetches that failed (post rejected or error completion).
    std::uint64_t faa_failures = 0;
    /// Backed-off re-attempts after failed fetches.
    std::uint64_t faa_retries = 0;
    /// Report writes that failed (post rejected or error completion).
    std::uint64_t report_failures = 0;
    /// Degraded mode (DESIGN.md §15): times the engine fell back to
    /// reservation-only pacing because the monitor went silent, and the
    /// synthetic reservation-only periods it self-issued while degraded.
    std::uint64_t degraded_entries = 0;
    std::uint64_t degraded_periods = 0;
    /// Stale queued requests dropped on monitor re-sync (bounded recovery;
    /// see QosConfig::recovery_backlog_periods).
    std::uint64_t shed_on_recovery = 0;
  };

  /// `qos_qp` is the engine's one-sided QP to the data node (FAA + report
  /// writes); `ctrl_qp` receives the monitor's two-sided control messages.
  /// `wiring` carries the pool/report-slot addresses from admission.
  ClientQosEngine(sim::Simulator& sim, ClientId id, const QosConfig& config,
                  rdma::Node& node, rdma::QueuePair& qos_qp,
                  rdma::QueuePair& ctrl_qp, const QosWiring& wiring);

  ClientQosEngine(const ClientQosEngine&) = delete;
  ClientQosEngine& operator=(const ClientQosEngine&) = delete;

  void SetIoBackend(IoBackendFn backend) { backend_ = std::move(backend); }

  /// Application entry point: queue one I/O for `key`. Rejected with
  /// kResourceExhausted when the engine queue is full and with
  /// kFailedPrecondition before the first period begins.
  Status Submit(std::uint64_t key, CompleteFn done, bool is_write = false);

  /// Quiesces the engine (client crash/teardown): timers stop, queued
  /// requests are dropped, new submits are rejected until the next
  /// PeriodStart. The object must outlive any in-flight completions —
  /// callbacks it registered still fire and must find it alive.
  void Stop();

  /// Cluster deployments: the actor id this engine stamps on its trace
  /// events. Defaults to the client id; a client striped across D nodes
  /// runs D engines, and each needs a distinct actor or their rings would
  /// interleave and break the per-actor seq streams the audit checks.
  void SetTraceActor(std::uint32_t actor) { trace_actor_ = actor; }
  [[nodiscard]] std::uint32_t trace_actor() const { return trace_actor_; }

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t ReservationTokens() const { return xi_reservation_; }
  [[nodiscard]] std::int64_t PoolTokens() const { return local_global_; }
  [[nodiscard]] double DecayBound() const { return decay_x_; }
  [[nodiscard]] std::size_t QueueDepth() const { return queue_.size(); }
  [[nodiscard]] std::uint32_t CurrentPeriod() const { return period_; }
  [[nodiscard]] bool Reporting() const {
    return report_timer_ && report_timer_->Running();
  }
  /// True while the engine is in reservation-only degraded mode (the
  /// monitor lease went silent past the grace window; DESIGN.md §15).
  [[nodiscard]] bool Degraded() const { return degraded_; }

 private:
  struct Pending {
    std::uint64_t key;
    bool is_write;
    /// Causal id threading one application I/O through the detail trace
    /// (kIoQueued -> kIoIssue -> kIoComplete); dense per engine from 0.
    std::uint64_t io_id;
    CompleteFn done;
  };
  /// An issued I/O awaiting its backend completion.
  struct InFlight {
    std::uint64_t io_id = 0;
    CompleteFn done;
  };

  void HandleCtrl(const rdma::WorkCompletion& wc);
  void OnPeriodStart(const PeriodStartMsg& msg);
  void OnReportRequest();
  void EnterDegraded(SimDuration grace);
  void DegradedPeriod();
  void HandleQosCompletion(const rdma::WorkCompletion& wc);
  void TokenTick();
  void WriteReport();
  void TryIssue();
  /// Pops the queue head and hands it to the backend. `token_source` is the
  /// wire encoding for kIoIssue.b: 0 = reservation token, 1 = pool token.
  void IssueOne(std::int64_t token_source);
  void OnBackendDone(std::uint32_t slot);
  void PostTokenFetch();
  void ArmFaaRetry();

  std::size_t backend_outstanding_ = 0;

  sim::Simulator& sim_;
  ClientId id_;
  std::uint32_t trace_actor_ = 0;
  QosConfig config_;
  rdma::Node& node_;
  rdma::QueuePair& qos_qp_;
  rdma::QueuePair& ctrl_qp_;
  QosWiring wiring_;
  IoBackendFn backend_;

  // Token state (paper's xi_reservation, X, and the local batch of global
  // tokens).
  std::int64_t xi_reservation_ = 0;
  double decay_x_ = 0.0;
  double decay_per_tick_ = 0.0;
  std::int64_t local_global_ = 0;
  std::int64_t limit_ = 0;  // <=0: unlimited
  std::uint32_t period_ = 0;
  bool started_ = false;
  SimTime period_started_at_ = 0;

  // Degraded mode (DESIGN.md §15): when no period-start arrives within the
  // grace window the engine paces itself from the last provisioned
  // reservation — no free-token FAA, synthetic boundaries aligned to the
  // real cadence, bounded by degraded_max_periods. completed_this_period
  // and period_ are deliberately NOT reset on synthetic boundaries (report
  // monotonicity: the recovered monitor must never read a count rollback).
  bool degraded_ = false;
  std::uint32_t degraded_count_ = 0;
  std::int64_t last_provisioned_reservation_ = 0;

  // FAA state.
  bool faa_in_flight_ = false;
  std::uint32_t faa_period_ = 0;
  bool pool_retry_armed_ = false;
  // Failure backoff: current delay (0 = healthy, next failure starts at
  // config_.faa_retry_backoff), doubling per consecutive failure.
  SimDuration faa_backoff_ = 0;
  bool faa_retry_armed_ = false;
  // kFaaExhausted already emitted this period (one saturation signal per
  // period, not one per probe).
  bool faa_exhausted_signalled_ = false;

  // Report sequence number; makes consecutive report words bitwise
  // distinct so the monitor's lease sees an idle client as alive.
  std::uint8_t report_seq_ = 0;

  std::deque<Pending> queue_;
  std::vector<InFlight> in_flight_;  // indexed by IoDone slot
  std::vector<std::uint32_t> free_in_flight_;
  std::uint64_t next_io_id_ = 0;
  Stats stats_;

  // Control-plane receive buffers.
  std::vector<std::vector<std::byte>> ctrl_recv_buffers_;

  // 8-byte report payload lives in a registered MR.
  std::vector<std::byte> report_buffer_;
  const rdma::MemoryRegion* report_mr_ = nullptr;

  std::unique_ptr<sim::PeriodicTimer> token_timer_;
  std::unique_ptr<sim::PeriodicTimer> report_timer_;
  std::uint64_t next_wr_id_ = 1;
};

}  // namespace haechi::core
