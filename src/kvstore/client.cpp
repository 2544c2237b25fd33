#include "kvstore/client.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "obs/trace.hpp"
#include "kvstore/server.hpp"

namespace haechi::kvstore {

namespace {

std::uint64_t LoadU64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

KvClient::KvClient(rdma::Node& node, rdma::QueuePair& data_qp, StoreView view,
                   const Config& config)
    : node_(node), data_qp_(data_qp), view_(view), config_(config) {
  HAECHI_EXPECTS(config.max_outstanding > 0);
  pool_.resize(config.max_outstanding * view_.stride());
  pool_mr_ = &node_.pd().Register(
      std::span<std::byte>(pool_),
      rdma::access::kLocalRead | rdma::access::kLocalWrite);
  free_slots_.reserve(config.max_outstanding);
  for (std::size_t i = config.max_outstanding; i > 0; --i) {
    free_slots_.push_back(i - 1);
  }
  data_qp_.send_cq().SetNotify(
      [this](const rdma::WorkCompletion& wc) { OnDataCompletion(wc); });
}

std::span<std::byte> KvClient::SlotSpan(std::size_t slot) {
  return {pool_.data() + slot * view_.stride(), view_.stride()};
}

Status KvClient::PostGet(std::uint64_t key, std::size_t slot,
                         std::uint32_t attempts, bool owns_slot,
                         DoneFn& done) {
  const std::uint64_t wr_id = next_wr_id_++;
  const Status s = data_qp_.PostRead(wr_id, SlotSpan(slot),
                                     view_.RecordAddr(key), view_.data_rkey);
  if (!s.ok()) return s;
  const std::size_t index = ClaimOp(wr_id);
  ops_[index] = PendingOp{wr_id, key, slot, rdma::Opcode::kRead, attempts,
                          owns_slot, std::move(done)};
  return Status::Ok();
}

std::size_t KvClient::ClaimOp(std::uint64_t wr_id) {
  while (ops_.empty() || ops_[wr_id & (ops_.size() - 1)].wr_id != 0) {
    GrowOps();
  }
  ++outstanding_;
  return wr_id & (ops_.size() - 1);
}

void KvClient::GrowOps() {
  // The smallest doubling under which the live wr_ids map one-to-one.
  std::size_t size = std::max<std::size_t>(64, ops_.size() * 2);
  for (;; size *= 2) {
    std::vector<bool> used(size);
    bool clash = false;
    for (const PendingOp& op : ops_) {
      if (op.wr_id == 0) continue;
      const std::size_t index = op.wr_id & (size - 1);
      if (used[index]) {
        clash = true;
        break;
      }
      used[index] = true;
    }
    if (!clash) break;
  }
  std::vector<PendingOp> grown(size);
  for (PendingOp& op : ops_) {
    if (op.wr_id != 0) grown[op.wr_id & (size - 1)] = std::move(op);
  }
  ops_ = std::move(grown);
}

void KvClient::ReleaseSlot(const PendingOp& op) {
  if (op.owns_slot) free_slots_.push_back(op.slot);
}

Status KvClient::GetOneSided(std::uint64_t key, DoneFn done) {
  HAECHI_EXPECTS(done != nullptr);
  HAECHI_TRACE_DETAIL(obs::ActorKind::kKv, Raw(node_.id()),
                      obs::EventType::kKvIssue, 0, 0,
                      static_cast<std::int64_t>(key));
  if (key >= view_.record_count) {
    return ErrNotFound("key " + std::to_string(key) + " out of range");
  }
  if (!node_.fabric().copy_payloads()) {
    // Timing-only mode: no bytes move, so all GETs share slot 0.
    return PostGet(key, 0, 1, /*owns_slot=*/false, done);
  }
  if (free_slots_.empty()) {
    return ErrResourceExhausted("no free GET slots");
  }
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  const Status s = PostGet(key, slot, 1, /*owns_slot=*/true, done);
  if (!s.ok()) free_slots_.push_back(slot);
  return s;
}

Status KvClient::PutOneSided(std::uint64_t key,
                             std::span<const std::byte> value, DoneFn done) {
  HAECHI_EXPECTS(done != nullptr);
  HAECHI_TRACE_DETAIL(obs::ActorKind::kKv, Raw(node_.id()),
                      obs::EventType::kKvIssue, 0, 1,
                      static_cast<std::int64_t>(key));
  if (key >= view_.record_count) {
    return ErrNotFound("key " + std::to_string(key) + " out of range");
  }
  if (value.size() != view_.payload_bytes) {
    return ErrInvalidArgument("payload must be exactly record-sized");
  }
  const bool pooled = node_.fabric().copy_payloads();
  std::size_t slot = 0;
  if (pooled) {
    if (free_slots_.empty()) {
      return ErrResourceExhausted("no free PUT slots");
    }
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  // Stage the full frame [version | payload | version] locally, then ship
  // it with one WRITE. The simulated DMA applies it atomically; version 0
  // keeps the frame trivially consistent for subsequent readers. (Multi-
  // writer ordering is out of scope, as in the paper's read evaluation.)
  // In timing-only mode (payload copying off) the frame bytes are never
  // read, so all PUTs share slot 0.
  auto frame = SlotSpan(slot);
  if (pooled) {
    std::memset(frame.data(), 0, kVersionBytes);
    std::memcpy(frame.data() + kVersionBytes, value.data(), value.size());
    std::memset(frame.data() + kVersionBytes + value.size(), 0,
                kVersionBytes);
  }
  const std::uint64_t wr_id = next_wr_id_++;
  const Status s = data_qp_.PostWrite(wr_id, frame, view_.RecordAddr(key),
                                      view_.data_rkey);
  if (!s.ok()) {
    if (pooled) free_slots_.push_back(slot);
    return s;
  }
  const std::size_t index = ClaimOp(wr_id);
  ops_[index] = PendingOp{wr_id, key, slot, rdma::Opcode::kWrite, 1,
                          /*owns_slot=*/pooled, std::move(done)};
  return Status::Ok();
}

void KvClient::OnDataCompletion(const rdma::WorkCompletion& wc) {
  HAECHI_ASSERT(!ops_.empty());
  PendingOp& entry = ops_[wc.wr_id & (ops_.size() - 1)];
  HAECHI_ASSERT(entry.wr_id == wc.wr_id);
  PendingOp op = std::move(entry);
  entry.wr_id = 0;
  --outstanding_;
  const std::uint32_t attempts = op.attempts;

  if (!wc.ok()) {
    ReleaseSlot(op);
    FinishOp(std::move(op),
             Completion{ErrInternal(std::string("completion error: ") +
                                    std::string(rdma::ToString(wc.status))),
                        {}, attempts - 1});
    return;
  }

  if (op.opcode == rdma::Opcode::kWrite) {
    ReleaseSlot(op);
    FinishOp(std::move(op), Completion{Status::Ok(), {}, 0});
    return;
  }

  // One-sided GET: validate the seqlock frame (only meaningful when the
  // fabric actually moved bytes).
  auto frame = SlotSpan(op.slot);
  if (node_.fabric().copy_payloads()) {
    const std::uint64_t head = LoadU64(frame.data());
    const std::uint64_t tail =
        LoadU64(frame.data() + kVersionBytes + view_.payload_bytes);
    const bool torn = head != tail || head % 2 != 0;
    if (torn) {
      ++torn_retries_;
      if (op.attempts < config_.read_retry_limit) {
        const Status s = PostGet(op.key, op.slot, op.attempts + 1,
                                 op.owns_slot, op.done);
        if (s.ok()) return;
      }
      ReleaseSlot(op);
      FinishOp(std::move(op),
               Completion{ErrAborted("torn read after retries"), {},
                          attempts});
      return;
    }
    if (config_.validate_payload) {
      for (std::size_t i = 0; i < view_.payload_bytes; ++i) {
        if (frame[kVersionBytes + i] != KvServer::PatternByte(op.key, i)) {
          ReleaseSlot(op);
          FinishOp(std::move(op),
                   Completion{ErrInternal("payload mismatch"), {},
                              attempts - 1});
          return;
        }
      }
    }
  }
  const std::span<const std::byte> data{frame.data() + kVersionBytes,
                                        view_.payload_bytes};
  ReleaseSlot(op);
  FinishOp(std::move(op), Completion{Status::Ok(), data, attempts - 1});
}

void KvClient::FinishOp(PendingOp op, const Completion& completion) {
  ++completed_;
  HAECHI_TRACE_DETAIL(obs::ActorKind::kKv, Raw(node_.id()),
                      obs::EventType::kKvComplete, 0,
                      op.opcode == rdma::Opcode::kWrite ? 1 : 0,
                      static_cast<std::int64_t>(op.key),
                      static_cast<std::int64_t>(completion.status.code()));
  op.done(completion);
}

void KvClient::BindRpcQp(rdma::QueuePair& qp) {
  HAECHI_EXPECTS(rpc_qp_ == nullptr);
  rpc_qp_ = &qp;
  const std::size_t reply_bytes = sizeof(RpcReply) + view_.payload_bytes;
  rpc_recv_buffers_.resize(config_.max_outstanding);
  for (std::size_t i = 0; i < rpc_recv_buffers_.size(); ++i) {
    rpc_recv_buffers_[i].resize(reply_bytes);
    const Status s =
        qp.PostRecv(i, std::span<std::byte>(rpc_recv_buffers_[i]));
    HAECHI_ASSERT(s.ok());
  }
  rpc_request_buffer_.resize(sizeof(RpcRequest));
  qp.recv_cq().SetNotify(
      [this](const rdma::WorkCompletion& wc) { OnRpcReply(wc); });
  qp.send_cq().SetNotify([](const rdma::WorkCompletion&) {
    // Request-send completions carry no information for the client.
  });
}

Status KvClient::GetRpc(std::uint64_t key, DoneFn done) {
  HAECHI_EXPECTS(done != nullptr);
  if (rpc_qp_ == nullptr) {
    return ErrFailedPrecondition("RPC channel not bound");
  }
  if (key >= view_.record_count) {
    return ErrNotFound("key " + std::to_string(key) + " out of range");
  }
  RpcRequest request{RpcOp::kGet, 0, key};
  std::memcpy(rpc_request_buffer_.data(), &request, sizeof(request));
  const Status s = rpc_qp_->PostSend(
      next_wr_id_++, std::span<const std::byte>(rpc_request_buffer_),
      rdma::ServiceClass::kRpcRequest);
  if (!s.ok()) return s;
  rpc_pending_.push_back(PendingRpc{key, std::move(done)});
  return Status::Ok();
}

Status KvClient::PutRpc(std::uint64_t key, std::span<const std::byte> value,
                        DoneFn done) {
  HAECHI_EXPECTS(done != nullptr);
  if (rpc_qp_ == nullptr) {
    return ErrFailedPrecondition("RPC channel not bound");
  }
  if (key >= view_.record_count) {
    return ErrNotFound("key " + std::to_string(key) + " out of range");
  }
  if (value.size() != view_.payload_bytes) {
    return ErrInvalidArgument("payload must be exactly record-sized");
  }
  RpcRequest request{RpcOp::kPut,
                     static_cast<std::uint32_t>(value.size()), key};
  // PUT requests carry the payload after the header; build the frame in a
  // scratch buffer sized on first use.
  const std::size_t frame_bytes = sizeof(request) + value.size();
  if (rpc_request_buffer_.size() < frame_bytes) {
    rpc_request_buffer_.resize(frame_bytes);
  }
  std::memcpy(rpc_request_buffer_.data(), &request, sizeof(request));
  std::memcpy(rpc_request_buffer_.data() + sizeof(request), value.data(),
              value.size());
  const Status s = rpc_qp_->PostSend(
      next_wr_id_++,
      std::span<const std::byte>(rpc_request_buffer_.data(), frame_bytes),
      rdma::ServiceClass::kRpcRequest);
  if (!s.ok()) return s;
  rpc_pending_.push_back(PendingRpc{key, std::move(done)});
  return Status::Ok();
}

void KvClient::OnRpcReply(const rdma::WorkCompletion& wc) {
  HAECHI_ASSERT(wc.opcode == rdma::Opcode::kRecv);
  HAECHI_ASSERT(!rpc_pending_.empty());
  PendingRpc pending = std::move(rpc_pending_.front());
  rpc_pending_.pop_front();

  auto& buffer = rpc_recv_buffers_[wc.wr_id];
  RpcReply reply;
  HAECHI_ASSERT(wc.byte_len >= sizeof(reply));
  std::memcpy(&reply, buffer.data(), sizeof(reply));
  HAECHI_ASSERT(reply.key == pending.key);

  Completion completion;
  if (reply.status == RpcStatus::kOk) {
    // Clamp the server-reported length to the received frame.
    const std::size_t payload = std::min<std::size_t>(
        reply.payload_bytes, buffer.size() - sizeof(RpcReply));
    completion.data = {buffer.data() + sizeof(RpcReply), payload};
  } else {
    completion.status = reply.status == RpcStatus::kNotFound
                            ? ErrNotFound("key not found")
                            : ErrInvalidArgument("bad RPC request");
  }
  ++completed_;
  pending.done(completion);

  // Re-post the consumed receive buffer.
  const Status s =
      rpc_qp_->PostRecv(wc.wr_id, std::span<std::byte>(buffer));
  HAECHI_ASSERT(s.ok());
}

}  // namespace haechi::kvstore
