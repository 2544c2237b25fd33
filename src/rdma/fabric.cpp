#include "rdma/fabric.hpp"

#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace haechi::rdma {

Node::Node(sim::Simulator& sim, Fabric& fabric, NodeId id, NodeRole role,
           std::string name, const net::ModelParams& params,
           std::uint64_t seed)
    : sim_(sim),
      fabric_(fabric),
      id_(id),
      role_(role),
      name_(std::move(name)),
      out_nic_(sim, name_ + "/out-nic", params.service_jitter, seed,
               net::Discipline::kRoundRobin),
      in_nic_(sim, name_ + "/in-nic", params.service_jitter, seed + 1,
              params.responder_discipline),
      cpu_(sim, name_ + "/cpu", params.service_jitter, seed + 2,
           params.responder_discipline) {}

CompletionQueue& Node::CreateCq() { return cqs_.emplace_back(); }

QueuePair& Node::CreateQp(CompletionQueue& send_cq, CompletionQueue& recv_cq,
                          std::size_t send_queue_depth) {
  return qps_.emplace_back(fabric_, *this, fabric_.next_qp_id_++, send_cq,
                           recv_cq, send_queue_depth);
}

Fabric::Fabric(sim::Simulator& sim, net::ModelParams params,
               std::uint64_t seed)
    : sim_(sim), params_(params), seed_rng_(seed) {}

Node& Fabric::AddNode(std::string name, NodeRole role) {
  const auto id = MakeNodeId(static_cast<std::uint32_t>(nodes_.size()));
  return nodes_.emplace_back(sim_, *this, id, role, std::move(name), params_,
                             seed_rng_());
}

SimDuration Fabric::NicService(const Node& node, std::uint32_t bytes) const {
  return node.role() == NodeRole::kData ? params_.ServerNicService(bytes)
                                        : params_.ClientNicService(bytes);
}

void Fabric::Connect(QueuePair& a, QueuePair& b) {
  HAECHI_EXPECTS(a.remote_ == nullptr && b.remote_ == nullptr);
  HAECHI_EXPECTS(&a != &b);
  a.remote_ = &b;
  b.remote_ = &a;
}

SimDuration Fabric::InitiatorService(const OpState& op) const {
  const Node& src = op.src->node();
  switch (op.opcode) {
    case Opcode::kSend:
      if (op.service_class == ServiceClass::kRpcRequest) {
        return params_.ScaledService(params_.client_rpc_service);
      }
      return NicService(src, op.len);
    case Opcode::kFetchAdd:
    case Opcode::kCompareSwap:
      // Atomics are tiny on the wire; initiator charges the packet floor
      // (a message-rate cost — unaffected by capacity_scale).
      return params_.min_op_service;
    case Opcode::kRead:
    case Opcode::kWrite:
      return NicService(src, op.len);
    case Opcode::kRecv:
      break;
  }
  HAECHI_UNREACHABLE("RECV is never initiated through the fabric");
}

SimDuration Fabric::ResponderService(const OpState& op) const {
  const Node& dst = op.dst->node();
  switch (op.opcode) {
    case Opcode::kFetchAdd:
    case Opcode::kCompareSwap:
      // Atomic execution cost is a NIC message-rate property, not data
      // bandwidth: it stays fixed under capacity_scale.
      return params_.atomic_service;
    case Opcode::kRead:
    case Opcode::kWrite:
    case Opcode::kSend:
      return NicService(dst, op.len);
    case Opcode::kRecv:
      break;
  }
  HAECHI_UNREACHABLE("RECV is never serviced through the fabric");
}

Fabric::OpState* Fabric::AcquireOp() {
  OpState* op;
  if (free_ops_.empty()) {
    op = op_pool_.emplace_back(std::make_unique<OpState>()).get();
  } else {
    op = free_ops_.back();
    free_ops_.pop_back();
    // Reset every field but keep the staging buffer's capacity.
    std::vector<std::byte> staging = std::move(op->staging);
    *op = OpState{};
    op->staging = std::move(staging);
  }
  op->refs = 1;
  return op;
}

void Fabric::ReleaseOp(OpState* op) {
  HAECHI_ASSERT(op->refs > 0);
  if (--op->refs > 0) return;
  op->staging.clear();
  free_ops_.push_back(op);
}

void Fabric::Initiate(OpState* op) {
  HAECHI_ASSERT(op->src != nullptr && op->dst != nullptr);
  const SimDuration service = InitiatorService(*op);
  op->src->node().out_nic().Submit(op->src->id(), service,
                                   [this, op] { Transmit(op); });
}

void Fabric::Transmit(OpState* op) {
  Node& src = op->src->node();
  if (src.crashed_) {
    // The process died while the WR sat in the send queue.
    AbandonOp(op);
    return;
  }
  HAECHI_TRACE_DETAIL(obs::ActorKind::kFabric, Raw(src.id()),
                      obs::EventType::kRdmaIssue, 0,
                      static_cast<std::int64_t>(op->opcode),
                      static_cast<std::int64_t>(op->wr_id),
                      static_cast<std::int64_t>(op->len));
  FaultInjector::Decision decision;
  if (injector_ != nullptr) {
    decision = injector_->Decide(src.id(), op->dst->node().id(), op->opcode,
                                 op->src->id(), sim_.Now());
  }
  if (decision.drop) {
    // The request packet is lost; RC retransmits blindly until the
    // transport gives up and reports a retry-exceeded completion. The
    // responder never sees the op.
    ++fault_stats_.ops_dropped;
    HAECHI_TRACE_EVENT(obs::ActorKind::kFabric, Raw(src.id()),
                       obs::EventType::kOpDropped, 0,
                       static_cast<std::int64_t>(op->opcode),
                       static_cast<std::int64_t>(op->wr_id));
    CompleteAfter(op, params_.retry_timeout, WcStatus::kRetryExceeded);
    return;
  }
  const SimDuration latency = params_.link_latency + decision.extra_delay;
  if (decision.extra_delay > 0) {
    ++fault_stats_.ops_delayed;
    HAECHI_TRACE_EVENT(obs::ActorKind::kFabric, Raw(src.id()),
                       obs::EventType::kOpDelayed, 0,
                       static_cast<std::int64_t>(op->opcode),
                       static_cast<std::int64_t>(op->wr_id),
                       decision.extra_delay);
  }
  if (src.paused_) {
    // Outbound side of the partition: the op cannot leave the node (nor
    // can a duplicate of it); it resumes its journey when the partition
    // heals.
    DeferOnNode(src.id(), {op, DeferredOp::Stage::kArrive,
                           /*duplicate=*/false});
    return;
  }
  if (decision.duplicate) {
    // The wire delivers the request twice; the copy trails the original
    // by a packet slot so per-QP arrival order stays deterministic. It
    // holds its own reference to the record.
    ++fault_stats_.ops_duplicated;
    HAECHI_TRACE_EVENT(obs::ActorKind::kFabric, Raw(src.id()),
                       obs::EventType::kOpDuplicated, 0,
                       static_cast<std::int64_t>(op->opcode),
                       static_cast<std::int64_t>(op->wr_id));
    ++op->refs;
    sim_.ScheduleAfter(latency + params_.min_op_service, [this, op] {
      ArriveAtResponder(op, /*duplicate=*/true);
    });
  }
  sim_.ScheduleAfter(latency, [this, op] { ArriveAtResponder(op); });
}

void Fabric::ArriveAtResponder(OpState* op, bool duplicate) {
  Node& dst_node = op->dst->node();
  if (dst_node.crashed_) {
    // A dead responder never ACKs: the initiator's RNIC retries until its
    // transport timer expires. The duplicate copy just evaporates.
    if (duplicate) {
      ReleaseOp(op);
      return;
    }
    ++fault_stats_.dead_target_naks;
    CompleteAfter(op, params_.retry_timeout, WcStatus::kRetryExceeded);
    return;
  }
  if (dst_node.paused_) {
    DeferOnNode(dst_node.id(), {op, DeferredOp::Stage::kArrive, duplicate});
    return;
  }
  if (!duplicate) ++ops_delivered_;
  // The remote QP is dead (its node may have crashed and restarted): the
  // responder NAKs and the initiator's retries can never succeed. Otherwise
  // validation failures take the NAK path, consuming no responder service.
  const WcStatus verdict = op->dst->state() == QpState::kError
                               ? WcStatus::kRetryExceeded
                               : ValidateRemote(*op);
  if (verdict != WcStatus::kSuccess) {
    if (duplicate) {
      ReleaseOp(op);
    } else {
      CompleteToInitiator(op, verdict);
    }
    return;
  }
  const SimDuration service = ResponderService(*op);
  const net::FlowId flow = op->src->id();
  // Atomics and sub-64-byte transfers ride the responder's fast path: an
  // RNIC executes small packets in its pipeline immediately; only bulk DMA
  // queues for bandwidth.
  const net::Priority priority =
      (op->opcode == Opcode::kFetchAdd || op->opcode == Opcode::kCompareSwap ||
       op->len <= kAlwaysCopyBytes)
          ? net::Priority::kControl
          : net::Priority::kBulk;
  dst_node.in_nic().Submit(
      flow, service, [this, op, duplicate] { ServeAtResponder(op, duplicate); },
      priority);
}

void Fabric::ServeAtResponder(OpState* op, bool duplicate) {
  if (op->dst->node().crashed_) {
    // The responder died while the op was queued at its NIC: no memory
    // effect, no ACK — the initiator times out.
    if (duplicate) {
      ReleaseOp(op);
    } else {
      CompleteAfter(op, params_.retry_timeout, WcStatus::kRetryExceeded);
    }
    return;
  }
  ExecuteAtResponder(*op, duplicate);
  if (duplicate) {
    ReleaseOp(op);
  } else {
    CompleteToInitiator(op, WcStatus::kSuccess);
  }
}

WcStatus Fabric::ValidateRemote(const OpState& op) const {
  if (op.opcode == Opcode::kSend) return WcStatus::kSuccess;
  const ProtectionDomain& pd = op.dst->node().pd();
  const MemoryRegion* mr = pd.FindByRkey(op.rkey);
  if (mr == nullptr) return WcStatus::kRemoteInvalidRkey;
  if (!mr->Covers(op.remote, op.len)) return WcStatus::kRemoteOutOfRange;
  AccessFlags required = 0;
  switch (op.opcode) {
    case Opcode::kRead: required = access::kRemoteRead; break;
    case Opcode::kWrite: required = access::kRemoteWrite; break;
    case Opcode::kFetchAdd:
    case Opcode::kCompareSwap: required = access::kRemoteAtomic; break;
    case Opcode::kSend:
    case Opcode::kRecv: break;
  }
  if (!mr->Allows(required)) return WcStatus::kRemoteAccessError;
  if ((op.opcode == Opcode::kFetchAdd || op.opcode == Opcode::kCompareSwap) &&
      op.remote % alignof(std::uint64_t) != 0) {
    return WcStatus::kRemoteMisaligned;
  }
  return WcStatus::kSuccess;
}

void Fabric::ExecuteAtResponder(OpState& op, bool duplicate) {
  // The memory effect happens *now*, at the responder's service instant —
  // this ordering is what makes the simulated atomics and seqlock reads
  // behave like hardware DMA.
  //
  // A duplicated request re-executes only the idempotent WRITE DMA: the RC
  // transport deduplicates by PSN, so atomics never apply twice (a
  // double-drained token pool would violate exactly-once FAA semantics),
  // SENDs never consume a second RECV, and a duplicate READ's snapshot is
  // discarded with the duplicate itself. What a duplicate always costs is
  // responder service time — charged by our caller either way.
  if (duplicate && op.opcode != Opcode::kWrite) return;
  auto* target = reinterpret_cast<std::byte*>(op.remote);
  switch (op.opcode) {
    case Opcode::kRead:
      if (copy_payloads_ || op.len <= kAlwaysCopyBytes) {
        op.staging.assign(target, target + op.len);
      }
      break;
    case Opcode::kWrite:
      if (!op.staging.empty()) {
        std::memcpy(target, op.staging.data(), op.len);
      }
      break;
    case Opcode::kFetchAdd: {
      auto* word = reinterpret_cast<std::uint64_t*>(target);
      op.atomic_result = *word;
      *word = *word + static_cast<std::uint64_t>(op.atomic_delta);
      break;
    }
    case Opcode::kCompareSwap: {
      auto* word = reinterpret_cast<std::uint64_t*>(target);
      op.atomic_result = *word;
      if (*word == op.atomic_expected) *word = op.atomic_desired;
      break;
    }
    case Opcode::kSend:
      DeliverSend(op);
      break;
    case Opcode::kRecv:
      HAECHI_UNREACHABLE("RECV has no responder execution");
  }
}

void Fabric::DeliverSend(OpState& op) {
  QueuePair& dst = *op.dst;
  if (dst.recv_queue_.empty()) {
    // No RECV posted yet: park the payload (infinite RNR retry).
    HAECHI_LOG_DEBUG("QP %u: SEND parked, no RECV posted", dst.id());
    dst.parked_sends_.push_back(op.staging);
    return;
  }
  QueuePair::PostedRecv recv = dst.recv_queue_.front();
  dst.recv_queue_.pop_front();
  const std::size_t n = std::min(recv.buffer.size(), op.staging.size());
  std::copy_n(op.staging.begin(), n, recv.buffer.begin());
  WorkCompletion wc;
  wc.wr_id = recv.wr_id;
  wc.opcode = Opcode::kRecv;
  wc.status = WcStatus::kSuccess;
  wc.byte_len = static_cast<std::uint32_t>(n);
  wc.timestamp = sim_.Now();
  dst.recv_cq_.Push(wc);
}

void Fabric::CompleteAfter(OpState* op, SimDuration delay, WcStatus status) {
  op->status = status;
  sim_.ScheduleAfter(delay, [this, op] { FinishCompletion(op); });
}

void Fabric::FinishCompletion(OpState* op) {
  QueuePair& src = *op->src;
  Node& src_node = src.node();
  if (src_node.crashed_) {
    // Nobody is home to poll the CQ; the completion dies with the process.
    ++fault_stats_.dropped_completions;
    AbandonOp(op);
    return;
  }
  if (src_node.paused_) {
    DeferOnNode(src_node.id(), {op, DeferredOp::Stage::kComplete,
                                /*duplicate=*/false});
    return;
  }
  WcStatus status = op->status;
  if (src.state_ == QpState::kError && status == WcStatus::kSuccess) {
    // The QP erred while the op was in flight: hardware flushes it. Remote
    // NAK statuses earned before the transition are reported as-is.
    status = WcStatus::kFlushError;
    ++fault_stats_.flushed_completions;
  }
  if (status == WcStatus::kSuccess && op->opcode == Opcode::kRead &&
      !op->staging.empty()) {
    std::memcpy(op->local, op->staging.data(), op->len);
  }
  WorkCompletion wc;
  wc.wr_id = op->wr_id;
  wc.opcode = op->opcode;
  wc.status = status;
  wc.byte_len = op->len;
  wc.atomic_result = op->atomic_result;
  wc.timestamp = sim_.Now();
  HAECHI_TRACE_DETAIL(obs::ActorKind::kFabric, Raw(src_node.id()),
                      obs::EventType::kRdmaComplete, 0,
                      static_cast<std::int64_t>(wc.opcode),
                      static_cast<std::int64_t>(wc.wr_id),
                      static_cast<std::int64_t>(wc.status));
  HAECHI_ASSERT(src.in_flight_ > 0);
  --src.in_flight_;
  // Released before the CQE is delivered: the consumer may post again and
  // reuse the record straight away.
  ReleaseOp(op);
  src.send_cq_.Push(wc);
}

void Fabric::AbandonOp(OpState* op) {
  QueuePair& src = *op->src;
  HAECHI_ASSERT(src.in_flight_ > 0);
  --src.in_flight_;
  ReleaseOp(op);
}

void Fabric::InstallFaultPlan(const FaultPlan& plan) {
  HAECHI_EXPECTS(injector_ == nullptr);
  injector_ = std::make_unique<FaultInjector>(plan);
  for (const NodeEvent& event : plan.node_events) {
    sim_.ScheduleAt(event.at, [this, event] { ApplyNodeEvent(event); });
  }
  for (const QpFailure& failure : plan.qp_failures) {
    sim_.ScheduleAt(failure.at, [this, id = failure.qp] {
      QueuePair* qp = FindQp(id);
      HAECHI_ASSERT(qp != nullptr);
      HAECHI_TRACE_EVENT(obs::ActorKind::kFabric, Raw(qp->node().id()),
                         obs::EventType::kQpError, 0,
                         static_cast<std::int64_t>(id));
      qp->SetError();
    });
  }
}

void Fabric::ApplyNodeEvent(const NodeEvent& event) {
  switch (event.kind) {
    case NodeEvent::Kind::kCrash: CrashNode(event.node); break;
    case NodeEvent::Kind::kRestart: RestartNode(event.node); break;
    case NodeEvent::Kind::kPause: PauseNode(event.node); break;
    case NodeEvent::Kind::kResume: ResumeNode(event.node); break;
  }
}

QueuePair* Fabric::FindQp(QpId id) {
  for (Node& node : nodes_) {
    for (QueuePair& qp : node.qps_) {
      if (qp.id() == id) return &qp;
    }
  }
  return nullptr;
}

void Fabric::CrashNode(NodeId node) {
  Node& n = NodeRef(node);
  if (n.crashed_) return;
  n.crashed_ = true;
  n.paused_ = false;
  for (QueuePair& qp : n.qps_) qp.SetError();
  // Anything the node had on hold dies with it: held arrivals addressed to
  // it time out at their initiators; held outbound ops and completions
  // belonged to the dead process.
  auto held = deferred_.extract(Raw(node));
  if (!held.empty()) {
    for (DeferredOp& deferred : held.mapped()) {
      if (deferred.duplicate) {
        ReleaseOp(deferred.op);
        continue;
      }
      const bool inbound = deferred.stage == DeferredOp::Stage::kArrive &&
                           &deferred.op->dst->node() == &n;
      if (inbound) {
        ++fault_stats_.dead_target_naks;
        CompleteAfter(deferred.op, params_.retry_timeout,
                      WcStatus::kRetryExceeded);
      } else {
        ++fault_stats_.dropped_completions;
        AbandonOp(deferred.op);
      }
    }
  }
  HAECHI_LOG_DEBUG("fabric: node %u (%s) crashed", Raw(node),
                   n.name().c_str());
  HAECHI_TRACE_EVENT(obs::ActorKind::kFabric, Raw(node),
                     obs::EventType::kNodeCrash, 0);
  if (fault_hook_) fault_hook_(node, NodeFault::kCrash);
}

void Fabric::RestartNode(NodeId node) {
  Node& n = NodeRef(node);
  if (!n.crashed_) return;
  n.crashed_ = false;
  ++n.incarnation_;
  HAECHI_LOG_DEBUG("fabric: node %u (%s) restarted (incarnation %u)",
                   Raw(node), n.name().c_str(), n.incarnation_);
  HAECHI_TRACE_EVENT(obs::ActorKind::kFabric, Raw(node),
                     obs::EventType::kNodeRestart, 0,
                     static_cast<std::int64_t>(n.incarnation_));
  if (fault_hook_) fault_hook_(node, NodeFault::kRestart);
}

void Fabric::PauseNode(NodeId node) {
  Node& n = NodeRef(node);
  if (n.crashed_ || n.paused_) return;
  n.paused_ = true;
  HAECHI_TRACE_EVENT(obs::ActorKind::kFabric, Raw(node),
                     obs::EventType::kNodePause, 0);
  if (fault_hook_) fault_hook_(node, NodeFault::kPause);
}

void Fabric::ResumeNode(NodeId node) {
  Node& n = NodeRef(node);
  if (!n.paused_) return;
  n.paused_ = false;
  auto held = deferred_.extract(Raw(node));
  if (!held.empty()) {
    for (DeferredOp& deferred : held.mapped()) {
      if (deferred.stage == DeferredOp::Stage::kArrive) {
        ArriveAtResponder(deferred.op, deferred.duplicate);
      } else {
        FinishCompletion(deferred.op);
      }
    }
  }
  HAECHI_TRACE_EVENT(obs::ActorKind::kFabric, Raw(node),
                     obs::EventType::kNodeResume, 0);
  if (fault_hook_) fault_hook_(node, NodeFault::kResume);
}

bool Fabric::IsCrashed(NodeId node) const {
  return nodes_.at(Raw(node)).crashed_;
}

bool Fabric::IsPaused(NodeId node) const {
  return nodes_.at(Raw(node)).paused_;
}

void Fabric::DeferOnNode(NodeId node, DeferredOp deferred) {
  ++fault_stats_.deferred_ops;
  deferred_[Raw(node)].push_back(deferred);
}

}  // namespace haechi::rdma
