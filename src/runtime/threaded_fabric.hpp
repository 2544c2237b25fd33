// The threaded runtime's stand-in for rdma::Fabric: the same one-sided op
// surface the simulated verbs layer exposes (FAA on the pool word, silent
// 8-byte report WRITE, 4 KB record READ), executed directly against
// SharedRegion.
//
// Mapping to the simulated verbs surface:
//   rdma::QueuePair::PostFetchAdd  -> PostFetchAdd   (inline completion;
//                                     the returned word is wc.atomic_result)
//   rdma::QueuePair::PostWrite     -> PostReportWrite (seqlock'd slot store)
//   rdma::QueuePair::PostRead      -> PostRecordRead  (4 KB memcpy)
// The monitor owns the region the way the simulated monitor owns its
// control block, so it loads, exchanges and CASes the pool words through
// region() directly, with no NIC in between.
//
// Because the memory is genuinely shared, the async post/completion split
// collapses: each post IS its completion, with the atomicity a real NIC
// provides for masked atomics. Two-sided control traffic (PeriodStart,
// ReportRequest) stays out of this class — the monitor delivers it by
// direct call, modelling the SEND landing in the engine's ctrl CQ.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "common/assert.hpp"
#include "runtime/clock.hpp"
#include "runtime/shared_region.hpp"

namespace haechi::runtime {

class ThreadedFabric {
 public:
  struct PortStats {
    std::uint64_t faa_ops = 0;
    std::uint64_t report_writes = 0;
    std::uint64_t record_reads = 0;
  };

  ThreadedFabric(Clock& clock, std::uint64_t records, std::size_t shards = 1)
      : clock_(clock), region_(records, shards) {}

  ThreadedFabric(const ThreadedFabric&) = delete;
  ThreadedFabric& operator=(const ThreadedFabric&) = delete;

  [[nodiscard]] Clock& clock() { return clock_; }
  [[nodiscard]] SharedRegion& region() { return region_; }

  // --- client-side one-sided ops (port = client index, bounds the stats) --

  /// Remote FAA on one pool shard; returns the pre-add value.
  std::int64_t PostFetchAdd(std::size_t port, std::size_t shard,
                            std::int64_t delta) {
    ports_[Check(port)].faa_ops.fetch_add(1, std::memory_order_relaxed);
    return region_.FetchAddPool(shard, delta);
  }

  /// Silent one-sided report WRITE into the client's slot.
  void PostReportWrite(std::size_t port, std::size_t slot,
                       std::uint64_t packed) {
    ports_[Check(port)].report_writes.fetch_add(1, std::memory_order_relaxed);
    region_.slot(slot).Write(packed, clock_.Now());
  }

  /// One-sided 4 KB record READ.
  void PostRecordRead(std::size_t port, std::uint64_t key,
                      std::span<std::byte> dst) {
    ports_[Check(port)].record_reads.fetch_add(1, std::memory_order_relaxed);
    region_.ReadRecord(key, dst);
  }

  [[nodiscard]] std::size_t shards() const { return region_.shards(); }
  [[nodiscard]] std::uint64_t SlotWriteRetries(std::size_t slot) const {
    return region_.slot(slot).WriteRetries();
  }

  [[nodiscard]] PortStats stats(std::size_t port) const {
    const auto& p = ports_[Check(port)];
    PortStats out;
    out.faa_ops = p.faa_ops.load(std::memory_order_relaxed);
    out.report_writes = p.report_writes.load(std::memory_order_relaxed);
    out.record_reads = p.record_reads.load(std::memory_order_relaxed);
    return out;
  }

 private:
  struct alignas(64) Port {
    std::atomic<std::uint64_t> faa_ops{0};
    std::atomic<std::uint64_t> report_writes{0};
    std::atomic<std::uint64_t> record_reads{0};
  };

  static std::size_t Check(std::size_t port) {
    HAECHI_EXPECTS(port < SharedRegion::kMaxClients);
    return port;
  }

  Clock& clock_;
  SharedRegion region_;
  Port ports_[SharedRegion::kMaxClients];
};

}  // namespace haechi::runtime
