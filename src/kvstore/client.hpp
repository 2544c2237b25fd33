// Client-side access paths to the key-value store.
//
// GetOneSided is the silent path Haechi regulates: one RDMA READ straight
// into a registered local buffer, seqlock-validated, with bounded retries
// on torn reads. GetRpc is the two-sided baseline. PutOneSided writes a
// whole record frame (single WRITE; applied atomically at the responder's
// DMA instant in the simulated fabric).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "kvstore/layout.hpp"
#include "rdma/fabric.hpp"
#include "sim/callback.hpp"

namespace haechi::kvstore {

class KvClient {
 public:
  struct Config {
    /// Local READ-buffer slots; bounds concurrently outstanding GETs.
    std::size_t max_outstanding = 256;
    /// Re-reads attempted when a one-sided GET observes a torn record.
    std::size_t read_retry_limit = 3;
    /// Verify payload bytes against KvServer::PatternByte (tests only).
    bool validate_payload = false;
  };

  /// Result of a completed GET/PUT. `data` points into the client's buffer
  /// pool and is valid only during the callback.
  struct Completion {
    Status status = Status::Ok();
    std::span<const std::byte> data;
    std::uint32_t retries = 0;
  };
  using DoneFn = sim::InlineFunction<void(const Completion&)>;

  /// `data_qp` must be connected to a QP on the store's node.
  KvClient(rdma::Node& node, rdma::QueuePair& data_qp, StoreView view,
           const Config& config);

  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// One-sided GET; `done` fires at the simulated completion instant.
  /// When the fabric copies payloads, each outstanding GET owns a buffer
  /// slot and the call fails fast with kResourceExhausted once the pool is
  /// exhausted. With copying disabled (timing-only experiments), GETs
  /// share one slot and the only depth limit is the QP's send queue.
  Status GetOneSided(std::uint64_t key, DoneFn done);

  /// One-sided PUT of a full record payload.
  Status PutOneSided(std::uint64_t key, std::span<const std::byte> value,
                     DoneFn done);

  /// Attaches the client side of a two-sided RPC channel.
  void BindRpcQp(rdma::QueuePair& qp);

  /// Two-sided GET via the RPC channel (BindRpcQp first).
  Status GetRpc(std::uint64_t key, DoneFn done);

  /// Two-sided PUT of a full record payload via the RPC channel.
  Status PutRpc(std::uint64_t key, std::span<const std::byte> value,
                DoneFn done);

  [[nodiscard]] const StoreView& view() const { return view_; }
  [[nodiscard]] std::size_t OutstandingOneSided() const {
    return outstanding_;
  }
  [[nodiscard]] std::uint64_t TornReadRetries() const { return torn_retries_; }
  [[nodiscard]] std::uint64_t OpsCompleted() const { return completed_; }

 private:
  struct PendingOp {
    std::uint64_t wr_id = 0;  // 0: the table entry is free
    std::uint64_t key = 0;
    std::size_t slot = 0;
    rdma::Opcode opcode = rdma::Opcode::kRead;
    std::uint32_t attempts = 0;
    bool owns_slot = false;
    DoneFn done;
  };
  struct PendingRpc {
    std::uint64_t key;
    DoneFn done;
  };

  [[nodiscard]] std::span<std::byte> SlotSpan(std::size_t slot);
  void OnDataCompletion(const rdma::WorkCompletion& wc);
  void OnRpcReply(const rdma::WorkCompletion& wc);
  void FinishOp(PendingOp op, const Completion& completion);
  /// Posts the READ and records it; `done` is moved from only on success,
  /// and on failure the caller still owns `done` and the buffer slot.
  Status PostGet(std::uint64_t key, std::size_t slot, std::uint32_t attempts,
                 bool owns_slot, DoneFn& done);
  void ReleaseSlot(const PendingOp& op);
  /// Index of the free ops_ entry for `wr_id`; grows the table on a
  /// collision.
  std::size_t ClaimOp(std::uint64_t wr_id);
  void GrowOps();

  rdma::Node& node_;
  rdma::QueuePair& data_qp_;
  StoreView view_;
  Config config_;
  std::vector<std::byte> pool_;
  const rdma::MemoryRegion* pool_mr_ = nullptr;
  std::vector<std::size_t> free_slots_;
  // One-sided ops in flight, direct-mapped by wr_id (a power-of-two
  // table). wr_ids are dense and increasing, so a table wider than the span
  // of live wr_ids never collides; a collision doubles it.
  std::vector<PendingOp> ops_;
  std::size_t outstanding_ = 0;
  std::uint64_t next_wr_id_ = 1;
  std::uint64_t torn_retries_ = 0;
  std::uint64_t completed_ = 0;

  // RPC channel state.
  rdma::QueuePair* rpc_qp_ = nullptr;
  std::vector<std::vector<std::byte>> rpc_recv_buffers_;
  std::deque<PendingRpc> rpc_pending_;  // replies arrive in request order
  std::vector<std::byte> rpc_request_buffer_;
};

}  // namespace haechi::kvstore
