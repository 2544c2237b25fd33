#include "kvstore/server.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace haechi::kvstore {

namespace {

std::uint64_t LoadVersion(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreVersion(std::byte* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

KvServer::KvServer(rdma::Node& node, const Config& config)
    : node_(node), config_(config) {
  HAECHI_EXPECTS(config.record_count > 0);
  HAECHI_EXPECTS(config.payload_bytes > 0);
  const std::size_t stride = RecordStride(config.payload_bytes);
  region_.resize(config.record_count * stride);
  mr_ = &node_.pd().Register(
      std::span<std::byte>(region_),
      rdma::access::kLocalRead | rdma::access::kLocalWrite |
          rdma::access::kRemoteRead | rdma::access::kRemoteWrite);
  view_.data_base = mr_->remote_addr();
  view_.data_rkey = mr_->rkey();
  view_.record_count = config.record_count;
  view_.payload_bytes = config.payload_bytes;
}

std::byte* KvServer::RecordPtr(std::uint64_t key) {
  HAECHI_EXPECTS(key < config_.record_count);
  return region_.data() + key * view_.stride();
}

const std::byte* KvServer::RecordPtr(std::uint64_t key) const {
  HAECHI_EXPECTS(key < config_.record_count);
  return region_.data() + key * view_.stride();
}

Status KvServer::Put(std::uint64_t key, std::span<const std::byte> value) {
  if (key >= config_.record_count) {
    return ErrNotFound("key " + std::to_string(key) + " out of range");
  }
  if (value.size() != config_.payload_bytes) {
    return ErrInvalidArgument("payload must be exactly record-sized");
  }
  std::byte* head = RecordPtr(key);
  std::byte* payload = head + kVersionBytes;
  std::byte* tail = payload + config_.payload_bytes;
  // Seqlock write protocol: head goes odd, payload mutates, tail then head
  // reach the new even version. A one-sided reader that snapshots any
  // intermediate state sees head != tail or an odd version and retries.
  const std::uint64_t v = LoadVersion(head);
  HAECHI_ASSERT(v % 2 == 0);
  StoreVersion(head, v + 1);
  std::memcpy(payload, value.data(), value.size());
  StoreVersion(tail, v + 2);
  StoreVersion(head, v + 2);
  return Status::Ok();
}

Result<std::vector<std::byte>> KvServer::Get(std::uint64_t key) const {
  if (key >= config_.record_count) {
    return ErrNotFound("key " + std::to_string(key) + " out of range");
  }
  const std::byte* payload = RecordPtr(key) + kVersionBytes;
  return std::vector<std::byte>(payload, payload + config_.payload_bytes);
}

std::byte KvServer::PatternByte(std::uint64_t key, std::size_t offset) {
  return static_cast<std::byte>((key * 131 + offset * 7 + 17) & 0xff);
}

void KvServer::PopulateDeterministic() {
  std::vector<std::byte> value(config_.payload_bytes);
  for (std::uint64_t key = 0; key < config_.record_count; ++key) {
    for (std::size_t i = 0; i < value.size(); ++i) {
      value[i] = PatternByte(key, i);
    }
    const Status s = Put(key, value);
    HAECHI_ASSERT(s.ok());
  }
}

void KvServer::BindRpcEndpoint(rdma::QueuePair& qp) {
  auto endpoint = std::make_unique<RpcEndpoint>();
  endpoint->qp = &qp;
  const std::size_t recv_bytes =
      sizeof(RpcRequest) + config_.payload_bytes;  // PUTs carry a payload
  endpoint->recv_buffers.resize(config_.rpc_recv_depth);
  for (std::size_t i = 0; i < config_.rpc_recv_depth; ++i) {
    endpoint->recv_buffers[i].resize(recv_bytes);
    const Status s = qp.PostRecv(i, std::span<std::byte>(
                                        endpoint->recv_buffers[i]));
    HAECHI_ASSERT(s.ok());
  }
  endpoint->reply_buffer.resize(sizeof(RpcReply) + config_.payload_bytes);
  RpcEndpoint* raw = endpoint.get();
  qp.recv_cq().SetNotify([this, raw](const rdma::WorkCompletion& wc) {
    HandleRpc(*raw, wc);
  });
  // Drain reply-send completions so the send CQ never grows unbounded.
  qp.send_cq().SetNotify([](const rdma::WorkCompletion& wc) {
    if (!wc.ok()) {
      HAECHI_LOG_WARN("kvserver: reply completion error: %s",
                      std::string(rdma::ToString(wc.status)).c_str());
    }
  });
  endpoints_.push_back(std::move(endpoint));
}

void KvServer::HandleRpc(RpcEndpoint& endpoint,
                         const rdma::WorkCompletion& wc) {
  HAECHI_ASSERT(wc.opcode == rdma::Opcode::kRecv);
  HAECHI_ASSERT(wc.wr_id < endpoint.recv_buffers.size());
  auto& buffer = endpoint.recv_buffers[wc.wr_id];
  RpcRequest request;
  HAECHI_ASSERT(wc.byte_len >= sizeof(request));
  std::memcpy(&request, buffer.data(), sizeof(request));
  std::vector<std::byte> put_payload;
  if (request.op == RpcOp::kPut && request.payload_bytes > 0) {
    // The length field comes off the wire: clamp it to the bytes actually
    // received before touching the buffer (Put() re-validates the size
    // against the record layout afterwards).
    const std::size_t claimed = request.payload_bytes;
    const std::size_t received = wc.byte_len - sizeof(request);
    const std::size_t take = std::min(claimed, received);
    put_payload.assign(buffer.begin() + sizeof(request),
                       buffer.begin() + sizeof(request) +
                           static_cast<std::ptrdiff_t>(take));
  }
  // The buffer's contents are copied out; re-post it right away so the
  // endpoint never runs dry.
  const Status repost =
      endpoint.qp->PostRecv(wc.wr_id, std::span<std::byte>(buffer));
  HAECHI_ASSERT(repost.ok());

  // Charge the data node's CPU for the request, fair-shared per endpoint —
  // this is the two-sided bottleneck the paper measures in Experiment 1B.
  const SimDuration service = node_.fabric().params().ScaledService(
      node_.fabric().params().server_rpc_service);
  endpoint.queued.push_back(QueuedRpc{request, std::move(put_payload)});
  node_.cpu().Submit(endpoint.qp->id(), service,
                     [this, &endpoint] { ServeRpc(endpoint); });
}

void KvServer::ServeRpc(RpcEndpoint& endpoint) {
  HAECHI_ASSERT(!endpoint.queued.empty());
  const QueuedRpc queued = std::move(endpoint.queued.front());
  endpoint.queued.pop_front();
  const RpcRequest& request = queued.request;
  ++rpcs_served_;
  RpcReply reply{};
  reply.key = request.key;
  std::size_t reply_len = sizeof(RpcReply);
  switch (request.op) {
    case RpcOp::kGet: {
      if (request.key >= config_.record_count) {
        reply.status = RpcStatus::kNotFound;
        break;
      }
      reply.status = RpcStatus::kOk;
      reply.payload_bytes = config_.payload_bytes;
      const std::byte* record = RecordPtr(request.key) + kVersionBytes;
      std::memcpy(endpoint.reply_buffer.data() + sizeof(RpcReply), record,
                  config_.payload_bytes);
      reply_len += config_.payload_bytes;
      break;
    }
    case RpcOp::kPut: {
      const Status s = Put(request.key, queued.put_payload);
      reply.status = s.ok() ? RpcStatus::kOk
                            : (s.code() == StatusCode::kNotFound
                                   ? RpcStatus::kNotFound
                                   : RpcStatus::kBadRequest);
      break;
    }
    default:
      reply.status = RpcStatus::kBadRequest;
  }
  std::memcpy(endpoint.reply_buffer.data(), &reply, sizeof(reply));
  const Status s = endpoint.qp->PostSend(
      /*wr_id=*/0,
      std::span<const std::byte>(endpoint.reply_buffer.data(), reply_len));
  if (!s.ok()) {
    HAECHI_LOG_WARN("kvserver: reply send failed: %s", s.ToString().c_str());
  }
}

}  // namespace haechi::kvstore
