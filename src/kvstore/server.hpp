// The data node's key-value store.
//
// Holds the record region in registered memory so clients can GET with a
// single one-sided READ (the silent path Haechi regulates), and serves a
// classical two-sided RPC path (used for the paper's two-sided baseline in
// Experiments 1A/1B). RPC handling consumes the node's CPU station, which
// is what makes two-sided throughput CPU-bound as in the paper.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "kvstore/layout.hpp"
#include "rdma/fabric.hpp"

namespace haechi::kvstore {

class KvServer {
 public:
  struct Config {
    std::uint64_t record_count = 65536;
    std::uint32_t payload_bytes = 4096;
    /// RECV buffers kept posted per RPC queue pair.
    std::size_t rpc_recv_depth = 256;
  };

  /// Allocates and registers the record region on `node`.
  KvServer(rdma::Node& node, const Config& config);

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Remote-addressing view handed to clients at connection time.
  [[nodiscard]] StoreView view() const { return view_; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] rdma::Node& node() { return node_; }

  /// Local (server-side) write: seqlock-framed, visible to concurrent
  /// one-sided readers as either the old or the new value, never torn.
  Status Put(std::uint64_t key, std::span<const std::byte> value);

  /// Local read of the current payload (for verification in tests).
  [[nodiscard]] Result<std::vector<std::byte>> Get(std::uint64_t key) const;

  /// Fills every record with a deterministic per-key pattern; tests verify
  /// one-sided GETs against the same pattern.
  void PopulateDeterministic();

  /// Returns the deterministic fill byte for (key, offset) used by
  /// PopulateDeterministic, so clients can validate without a copy.
  static std::byte PatternByte(std::uint64_t key, std::size_t offset);

  /// Attaches a server-side RPC endpoint: posts receive buffers on `qp` and
  /// serves GET/PUT requests arriving on it, charging the node CPU per
  /// request. The QP must already be connected to the client's QP.
  void BindRpcEndpoint(rdma::QueuePair& qp);

  /// RPCs served since construction (all endpoints).
  [[nodiscard]] std::uint64_t RpcsServed() const { return rpcs_served_; }

 private:
  struct QueuedRpc {
    RpcRequest request;
    std::vector<std::byte> put_payload;
  };
  struct RpcEndpoint {
    rdma::QueuePair* qp;
    std::vector<std::vector<std::byte>> recv_buffers;
    std::vector<std::byte> reply_buffer;
    // Requests waiting for the CPU, in arrival order: the CPU serves one
    // endpoint's requests FIFO, so each service completion takes the front.
    std::deque<QueuedRpc> queued;
  };

  [[nodiscard]] std::byte* RecordPtr(std::uint64_t key);
  [[nodiscard]] const std::byte* RecordPtr(std::uint64_t key) const;

  void HandleRpc(RpcEndpoint& endpoint, const rdma::WorkCompletion& wc);
  /// CPU service for the endpoint's oldest queued request is done: apply
  /// it and send the reply.
  void ServeRpc(RpcEndpoint& endpoint);

  rdma::Node& node_;
  Config config_;
  std::vector<std::byte> region_;
  const rdma::MemoryRegion* mr_ = nullptr;
  StoreView view_;
  std::vector<std::unique_ptr<RpcEndpoint>> endpoints_;
  std::uint64_t rpcs_served_ = 0;
};

}  // namespace haechi::kvstore
