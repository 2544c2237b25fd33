// The simulated RDMA fabric: nodes, their NIC stations, and the timed
// execution of verbs operations between them.
//
// Timing model per op (see DESIGN.md §1 and net/model_params.hpp):
//
//   initiator out-NIC (SerialStation)  ── link latency ──▶
//   responder in-NIC (FairShareStation, flow = initiator QP)
//   ── link latency ──▶ completion at initiator
//
// Completion ordering: strict post order per QP *within a service class*.
// Small control ops (atomics, sub-64-byte transfers) ride the responder's
// fast-path lane and may overtake bulk transfers posted earlier on the
// same QP — the price of modelling the RNIC's small-packet pipeline with
// one station. Haechi keeps its control plane on dedicated QPs, so it only
// ever relies on per-class ordering.
//
// Memory effects happen at the responder's service instant (the DMA):
// READ snapshots remote bytes, WRITE applies the posted snapshot, atomics
// read-modify-write the remote 64-bit word. Validation (rkey, bounds,
// access flags, alignment) happens when the op reaches the responder, and
// failures travel back as error completions without consuming responder
// service time — mirroring RNIC NAK behaviour.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/model_params.hpp"
#include "net/station.hpp"
#include "rdma/cq.hpp"
#include "rdma/fault.hpp"
#include "rdma/memory.hpp"
#include "rdma/qp.hpp"
#include "sim/simulator.hpp"

namespace haechi::rdma {

/// Determines which side of the calibrated NIC model a node uses: data
/// nodes serve one-sided ops at full adapter bandwidth (C_G), client nodes
/// are bound by the per-QP DMA budget (C_L).
enum class NodeRole : std::uint8_t { kClient, kData };

/// A machine in the cluster: a protection domain, an outbound NIC pipeline
/// (round-robin across this node's QPs, like a real adapter's SQ
/// arbitration — so an 8-byte QoS report never waits behind a deep data
/// send queue), an inbound NIC engine, and (for data nodes) a CPU used by
/// the two-sided RPC service.
class Node {
 public:
  Node(sim::Simulator& sim, Fabric& fabric, NodeId id, NodeRole role,
       std::string name, const net::ModelParams& params, std::uint64_t seed);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] NodeRole role() const { return role_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] ProtectionDomain& pd() { return pd_; }
  [[nodiscard]] net::FairShareStation& out_nic() { return out_nic_; }
  [[nodiscard]] net::FairShareStation& in_nic() { return in_nic_; }

  /// The node's RPC-serving CPU; only the data node's is ever loaded.
  /// Flow = requesting QP, so CPU time also divides fairly.
  [[nodiscard]] net::FairShareStation& cpu() { return cpu_; }

  CompletionQueue& CreateCq();
  QueuePair& CreateQp(CompletionQueue& send_cq, CompletionQueue& recv_cq,
                      std::size_t send_queue_depth = 256);

  /// Fault-injection state (driven by Fabric::CrashNode & friends).
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] bool paused() const { return paused_; }
  /// Bumped on every restart; lets observers distinguish the pre- and
  /// post-crash lives of a node.
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }

 private:
  friend class Fabric;

  sim::Simulator& sim_;
  Fabric& fabric_;
  NodeId id_;
  NodeRole role_;
  std::string name_;
  ProtectionDomain pd_;
  net::FairShareStation out_nic_;
  net::FairShareStation in_nic_;
  net::FairShareStation cpu_;
  std::deque<CompletionQueue> cqs_;
  std::deque<QueuePair> qps_;
  bool crashed_ = false;
  bool paused_ = false;
  std::uint32_t incarnation_ = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, net::ModelParams params, std::uint64_t seed);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Adds a machine. References remain valid for the fabric's lifetime.
  Node& AddNode(std::string name, NodeRole role = NodeRole::kClient);

  /// Connects two QPs into an RC pair. Loopback (same node) is allowed —
  /// the QoS monitor's `loopback_cas` mode uses it.
  void Connect(QueuePair& a, QueuePair& b);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const net::ModelParams& params() const { return params_; }
  [[nodiscard]] std::size_t NodeCount() const { return nodes_.size(); }
  Node& node(std::size_t index) { return nodes_.at(index); }

  /// When false, READ/WRITE skip the payload memcpy (timing and validation
  /// are unchanged). Large benches disable copies; correctness tests keep
  /// them on. SEND payloads and atomics are always real (control plane).
  void set_copy_payloads(bool on) { copy_payloads_ = on; }
  [[nodiscard]] bool copy_payloads() const { return copy_payloads_; }

  /// Total ops that reached a responder (served + rejected), for tests.
  [[nodiscard]] std::uint64_t OpsDelivered() const { return ops_delivered_; }

  /// Op records acquired and not yet released: 0 once every posted op has
  /// completed, been abandoned, or timed out (and any duplicate drained).
  [[nodiscard]] std::size_t LiveOps() const {
    return op_pool_.size() - free_ops_.size();
  }

  // --- fault injection ----------------------------------------------------

  /// Installs a fault plan: transport rules take effect immediately and the
  /// plan's node/QP events are scheduled on the simulator. At most one plan
  /// per fabric.
  void InstallFaultPlan(const FaultPlan& plan);

  /// Kills a node: its QPs enter the error state, ops addressed to it time
  /// out at their initiators (kRetryExceeded after retry_timeout — a dead
  /// responder never ACKs), and completions destined for it vanish with the
  /// process. Idempotent.
  void CrashNode(NodeId node);

  /// Revives a crashed node with a new incarnation. Old QPs stay in the
  /// error state — software must create fresh ones and re-connect, exactly
  /// as after a real reboot.
  void RestartNode(NodeId node);

  /// Partitions a node symmetrically: arrivals at it and completions for it
  /// are held (in order) until ResumeNode. Idempotent.
  void PauseNode(NodeId node);

  /// Heals the partition and replays every held op in arrival order.
  void ResumeNode(NodeId node);

  [[nodiscard]] bool IsCrashed(NodeId node) const;
  [[nodiscard]] bool IsPaused(NodeId node) const;

  enum class NodeFault : std::uint8_t { kCrash, kRestart, kPause, kResume };
  /// Observer for node lifecycle transitions (whether applied via a plan or
  /// directly); the harness uses it to stop/revive the node's software.
  using NodeFaultHook = std::function<void(NodeId, NodeFault)>;
  void SetNodeFaultHook(NodeFaultHook hook) { fault_hook_ = std::move(hook); }

  /// The installed plan's runtime evaluator, or nullptr.
  [[nodiscard]] FaultInjector* injector() { return injector_.get(); }

  struct FaultStats {
    std::uint64_t ops_dropped = 0;        // transport drops (retry-exceeded)
    std::uint64_t ops_delayed = 0;
    std::uint64_t ops_duplicated = 0;
    std::uint64_t dead_target_naks = 0;   // ops that timed out on a crashed node
    std::uint64_t flushed_completions = 0;
    std::uint64_t dropped_completions = 0;  // completions for crashed nodes
    std::uint64_t deferred_ops = 0;       // held by a paused node
  };
  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }

 private:
  friend class QueuePair;
  friend class Node;

  /// One in-flight work request. Records are pooled: a record returns to
  /// the free list (keeping its staging capacity) when its last reference
  /// is released, so steady-state traffic allocates nothing. `refs` is 1,
  /// or 2 while a duplicated request is in flight.
  struct OpState {
    Opcode opcode = Opcode::kRead;
    std::uint64_t wr_id = 0;
    QueuePair* src = nullptr;
    QueuePair* dst = nullptr;
    std::byte* local = nullptr;       // READ destination
    std::uint32_t len = 0;
    RemoteAddr remote = 0;
    std::uint32_t rkey = 0;
    std::int64_t atomic_delta = 0;    // FETCH_ADD
    std::uint64_t atomic_expected = 0;  // CMP_SWAP
    std::uint64_t atomic_desired = 0;   // CMP_SWAP
    std::uint64_t atomic_result = 0;
    ServiceClass service_class = ServiceClass::kAuto;
    WcStatus status = WcStatus::kSuccess;  // completion status once known
    std::uint32_t refs = 0;
    std::vector<std::byte> staging;   // WRITE/SEND payload or READ snapshot
  };

  /// Takes a reset record (refs == 1) from the pool.
  OpState* AcquireOp();

  /// Drops one reference; the last one returns the record to the pool.
  void ReleaseOp(OpState* op);

  /// Entry point from QueuePair::Post*: charge the initiator's out-NIC,
  /// then propagate.
  void Initiate(OpState* op);

  /// The op leaves the initiator's out-NIC: apply transport faults and put
  /// it on the wire.
  void Transmit(OpState* op);

  /// Op arrives at the responder after the link delay. `duplicate` marks
  /// the second delivery of a duplicated request: it consumes responder
  /// service (and re-applies idempotent WRITE DMA) but never generates a
  /// completion — the transport deduplicates by PSN.
  void ArriveAtResponder(OpState* op, bool duplicate = false);

  /// Responder NIC service complete: perform memory effects and ACK.
  void ServeAtResponder(OpState* op, bool duplicate);

  /// Validation at the responder NIC; kSuccess means "proceed to service".
  [[nodiscard]] WcStatus ValidateRemote(const OpState& op) const;

  /// Responder service complete: perform memory effects.
  void ExecuteAtResponder(OpState& op, bool duplicate = false);

  /// Completes the op with `status` at the initiator after `delay`.
  void CompleteAfter(OpState* op, SimDuration delay, WcStatus status);

  /// Sends the completion back to the initiator (after link delay).
  void CompleteToInitiator(OpState* op, WcStatus status) {
    CompleteAfter(op, params_.link_latency, status);
  }

  /// Delivers (or defers / drops) the completion at the initiator, applying
  /// crash / pause / QP-flush semantics at the delivery instant.
  void FinishCompletion(OpState* op);

  /// The initiating process died before this op completed: release its
  /// in-flight slot without generating a CQE.
  void AbandonOp(OpState* op);

  void ApplyNodeEvent(const NodeEvent& event);
  [[nodiscard]] QueuePair* FindQp(QpId id);

  /// Delivers an inbound SEND payload to the responder's recv path.
  void DeliverSend(OpState& op);

  [[nodiscard]] SimDuration InitiatorService(const OpState& op) const;
  [[nodiscard]] SimDuration ResponderService(const OpState& op) const;
  [[nodiscard]] SimDuration NicService(const Node& node,
                                       std::uint32_t bytes) const;

  /// An op held by a paused node, replayed in order on resume.
  struct DeferredOp {
    OpState* op;
    enum class Stage : std::uint8_t { kArrive, kComplete } stage;
    bool duplicate = false;
  };

  Node& NodeRef(NodeId id) { return nodes_.at(Raw(id)); }
  void DeferOnNode(NodeId node, DeferredOp deferred);

  sim::Simulator& sim_;
  net::ModelParams params_;
  Rng seed_rng_;
  std::deque<Node> nodes_;
  QpId next_qp_id_ = 0;
  bool copy_payloads_ = true;
  std::uint64_t ops_delivered_ = 0;

  std::vector<std::unique_ptr<OpState>> op_pool_;  // every record, owning
  std::vector<OpState*> free_ops_;

  std::unique_ptr<FaultInjector> injector_;
  NodeFaultHook fault_hook_;
  FaultStats fault_stats_;
  std::unordered_map<std::uint32_t, std::vector<DeferredOp>> deferred_;
};

}  // namespace haechi::rdma
