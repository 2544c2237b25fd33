// The process-shared QoS memory region backing the threaded runtime.
//
// This is the data node's registered control block and record store,
// realised as genuinely shared memory instead of simulated MRs:
//
//   * the global token pool as 1..kMaxShards cache-line-aligned signed
//     64-bit words, FAA'd by client worker threads and CAS/exchanged by the
//     monitor. With one shard this is the paper's single contended word;
//     with K shards each client homes on shard (slot % K) and the monitor
//     keeps the QoS ledger exact on the shard *sum*, with the
//     acquire/release discipline the RDMA atomics provide on a real NIC;
//   * one seqlock'd report slot per client: the 8-byte packed report plus
//     the writer's timestamp, overwritten by silent client WRITEs and
//     primed/read by the monitor;
//   * a flat record area client reads copy 4 KB records out of.
//
// Everything here is std::atomic with explicit ordering (the seqlock
// payload uses relaxed atomics under the seq protocol), so the whole layout
// is ThreadSanitizer-clean and would drop onto a shm/mmap mapping or an
// RDMA-registered buffer unchanged.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/monitor_core.hpp"

namespace haechi::runtime {

/// One report slot guarded by a sequence lock.
///
/// Two writers can collide on a slot — the owning client's report WRITE and
/// the monitor's period-boundary prime — so the writer side *acquires* the
/// seqlock by CAS-ing the sequence word from even to odd (a tiny writer
/// lock; the loser spins for the tens-of-nanoseconds store). Readers retry
/// until they see the same even sequence on both sides of the payload copy.
class alignas(64) SeqlockSlot {
 public:
  struct Snapshot {
    std::uint64_t packed = 0;  // core::PackReport wire format
    SimTime written_at = 0;    // writer's clock at the write
  };

  void Write(std::uint64_t packed, SimTime written_at);
  [[nodiscard]] Snapshot Read() const;

  /// Writer-side CAS failures (the even->odd acquire lost to a concurrent
  /// writer and spun). A contention signal, not a correctness one: the two
  /// slot writers are the owning client and the monitor's boundary prime.
  [[nodiscard]] std::uint64_t WriteRetries() const {
    return write_retries_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> seq_{0};
  // Payload fields are relaxed atomics purely so the seqlock's benign
  // read/write overlap is not a C++ data race; the seq protocol provides
  // the actual ordering. The alignas(64) on the class pads each slot to
  // its own cache line: adjacent clients' report WRITEs (every
  // report_interval, per client) must not false-share — see
  // bench_overhead's padded-vs-packed seqlock microbenchmark.
  std::atomic<std::uint64_t> packed_{0};
  std::atomic<SimTime> written_at_{0};
  std::atomic<std::uint64_t> write_retries_{0};
};

static_assert(sizeof(SeqlockSlot) == 64,
              "report slots must be padded to one cache line each");

class SharedRegion {
 public:
  /// One report slot per client the monitor can admit.
  static constexpr std::size_t kMaxClients = core::MonitorCore::kMaxClients;
  static constexpr std::size_t kMaxShards = 16;
  static constexpr std::size_t kRecordBytes = 4096;

  explicit SharedRegion(std::uint64_t records, std::size_t shards = 1);

  // --- global token pool shards (words 0..shards-1 of the control block) --

  [[nodiscard]] std::size_t shards() const { return shards_; }

  /// Client-side remote FAA on one shard: returns the value *before* the
  /// add.
  std::int64_t FetchAddPool(std::size_t shard, std::int64_t delta) {
    return pool_[CheckShard(shard)].word.fetch_add(delta,
                                                   std::memory_order_acq_rel);
  }

  [[nodiscard]] std::int64_t LoadPool(std::size_t shard) const {
    return pool_[CheckShard(shard)].word.load(std::memory_order_acquire);
  }

  /// Non-atomic-across-shards sum of all shard words (each load is
  /// acquire). Good enough for diagnostics; the monitor's ledger uses
  /// per-shard witnessed values, never this.
  [[nodiscard]] std::int64_t LoadPoolSum() const {
    std::int64_t sum = 0;
    for (std::size_t s = 0; s < shards_; ++s) sum += LoadPool(s);
    return sum;
  }

  /// Monitor-side period boundary: atomically installs the new period's
  /// initial share into one shard and returns that shard's final word —
  /// the exchange *is* the boundary, so no concurrent FAA is ever silently
  /// overwritten.
  std::int64_t ExchangePool(std::size_t shard, std::int64_t value) {
    return pool_[CheckShard(shard)].word.exchange(value,
                                                  std::memory_order_acq_rel);
  }

  /// Monitor-side token conversion / rebalance donor: replaces `expected`
  /// with `desired` on one shard. On failure `expected` is refreshed with
  /// the value FAAs moved the word to, and the monitor recomputes — a
  /// conversion never tramples a grant.
  bool CasPool(std::size_t shard, std::int64_t& expected,
               std::int64_t desired) {
    return pool_[CheckShard(shard)].word.compare_exchange_strong(
        expected, desired, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  // --- report slots (words 1..kMaxClients) --------------------------------

  [[nodiscard]] SeqlockSlot& slot(std::size_t i) { return slots_[i]; }
  [[nodiscard]] const SeqlockSlot& slot(std::size_t i) const {
    return slots_[i];
  }

  // --- record store -------------------------------------------------------

  [[nodiscard]] std::uint64_t records() const { return records_; }

  /// One-sided 4 KB READ: copies record `key % records` into `dst`.
  void ReadRecord(std::uint64_t key, std::span<std::byte> dst) const;

 private:
  struct alignas(64) PoolShard {
    std::atomic<std::int64_t> word{0};
  };

  std::size_t CheckShard(std::size_t shard) const {
    HAECHI_EXPECTS(shard < shards_);
    return shard;
  }

  std::size_t shards_;
  PoolShard pool_[kMaxShards];
  alignas(64) SeqlockSlot slots_[kMaxClients];
  std::uint64_t records_;
  std::vector<std::byte> data_;
};

}  // namespace haechi::runtime
