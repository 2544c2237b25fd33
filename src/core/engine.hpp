// The client-side QoS engine on simulated verbs (paper §II-D): the sim
// adapter around EngineCore, which holds every protocol rule. It adds the
// transport: a bounded Submit queue (a runaway client cannot push unbacked
// I/Os to the data node, §II-F), the in-flight IoDone slots, the ctrl-QP
// receive ring, FAA and report WRITEs on the one-sided QoS QP, sim timers
// and the fetch-retry wake-ups. No path involves the data-node CPU:
// control messages are the only two-sided traffic, sent by the monitor.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/engine_core.hpp"
#include "core/wire.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace haechi::core {

class ClientQosEngine final : private EnginePort, public EngineCore {
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
  /// kFailedPrecondition when no I/O backend is configured.
  Status Submit(std::uint64_t key, CompleteFn done, bool is_write = false);

  /// Quiesces the engine (client crash/teardown): timers stop, queued
  /// requests are dropped, and nothing is issued until the next
  /// PeriodStart. The object must outlive any in-flight completions —
  /// callbacks it registered still fire and must find it alive.
  void Stop();

  /// Cluster deployments: the actor id this engine stamps on its trace
  /// events. Defaults to the client id; a client striped across D nodes
  /// runs D engines, and each needs a distinct actor or their rings would
  /// interleave and break the per-actor seq streams the audit checks.
  void SetTraceActor(std::uint32_t actor) { trace_actor_ = actor; }

  [[nodiscard]] std::size_t QueueDepth() const { return queue_.size(); }

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

  // EnginePort.
  [[nodiscard]] SimTime Now() const override { return sim_.Now(); }
  Status PostFetch(std::int64_t delta) override;
  Status PostReport(std::uint64_t packed) override;
  std::int64_t ShedQueued(std::size_t keep) override;
  void Emit(obs::EventType type, std::uint32_t period, std::int64_t a,
            std::int64_t b, std::int64_t c) override;

  void HandleCtrl(const rdma::WorkCompletion& wc);
  void HandleQosCompletion(const rdma::WorkCompletion& wc);
  void TokenTick();
  void TryIssue();
  /// Wakes the engine after a failed fetch's `backoff` (0: none due).
  void ArmFaaRetry(SimDuration backoff);
  /// Pops the queue head and hands it to the backend. `token_source` is the
  /// wire encoding for kIoIssue.b: 0 = reservation token, 1 = pool token.
  void IssueOne(std::int64_t token_source);
  void OnBackendDone(std::uint32_t slot);

  sim::Simulator& sim_;
  std::uint32_t trace_actor_ = 0;
  rdma::QueuePair& qos_qp_;
  rdma::QueuePair& ctrl_qp_;
  QosWiring wiring_;
  IoBackendFn backend_;

  std::deque<Pending> queue_;
  std::vector<InFlight> in_flight_;  // indexed by IoDone slot
  std::vector<std::uint32_t> free_in_flight_;
  std::uint64_t next_io_id_ = 0;

  // Control-plane receive buffers.
  std::vector<std::vector<std::byte>> ctrl_recv_buffers_;

  // 8-byte report payload lives in a registered MR.
  std::vector<std::byte> report_buffer_;

  std::unique_ptr<sim::PeriodicTimer> token_timer_;
  std::unique_ptr<sim::PeriodicTimer> report_timer_;
  std::uint64_t next_wr_id_ = 1;
};

}  // namespace haechi::core
