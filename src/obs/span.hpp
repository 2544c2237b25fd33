// Per-IO span assembly: turns the flight recorder's causal detail events
// (kIoQueued -> kIoIssue -> kIoComplete, correlated by io_id) plus the
// engine's token-path events into per-IO latency spans broken down by
// pipeline stage. This is the measurement layer for the paper's central
// claim — that token fetch (FAA retries), conversion waits, and queueing
// at the client dominate one-sided I/O tail latency — so each stage of
// the span maps to one mechanism in §II:
//
//   admit        Submit() -> engine queue. Admission is synchronous in both
//                runtimes, so this stage is 0 ns today; it is kept so the
//                pipeline structure is stable when an async admission path
//                appears (and so sim and threads traces always agree on
//                stage *structure*, an acceptance property of the audit).
//   token_fetch  time the engine spent with a FAA in flight (including
//                failed posts and backoff retries, step T4) while this I/O
//                sat queued.
//   convert_wait time the engine spent parked on an empty pool — waiting
//                for the monitor's conversion (xi_global, step T2') to
//                refill it — while this I/O sat queued.
//   queue        residual queued time not attributed to fetch/convert:
//                head-of-line wait behind earlier I/Os, the period-end
//                fetch guard, and L_i throttling.
//   nic_service  issue -> completion at the backend (the one-sided data
//                op itself).
//
// Attribution is O(1) per event: the assembler keeps, per engine, running
// cumulative totals of "fetch open" and "wait open" interval time, snapshots
// them when an I/O is queued, and differences them when it issues. Overlap
// queries are never needed because the engine has at most one FAA in flight
// and the fetch/wait states are engine-global, not per-IO.
//
// All assembler state is per engine, so spans depend only on each engine's
// own event sub-stream. That is why a run's spans can be assembled straight
// from the recorder's engine rings, one ring after another, with no global
// time merge: AssembleSpans(recorder) equals AssembleSpans(recorder.Merged())
// byte for byte, stats included.
//
// Everything here compiles out under HAECHI_TRACE=OFF: the notrace build
// keeps only the type declarations (POD structs a caller may mention) and
// an inline stub AssembleSpans that returns empty — no assembler object
// code exists (bench_overhead's static_assert proves it).
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace haechi::obs {

/// Pipeline stage of a per-IO span. Order is presentation order.
enum class SpanStage : std::uint8_t {
  kAdmit = 0,
  kTokenFetch,
  kConvertWait,
  kQueue,
  kNicService,
};
inline constexpr std::size_t kSpanStages = 5;

/// Stable stage name ("admit", "token_fetch", ...) used by the profile
/// table, the Prometheus writer, and the Perfetto span exporter. Inline so
/// it exists in notrace builds (error paths may still name stages).
[[nodiscard]] inline std::string_view ToString(SpanStage stage) {
  switch (stage) {
    case SpanStage::kAdmit: return "admit";
    case SpanStage::kTokenFetch: return "token_fetch";
    case SpanStage::kConvertWait: return "convert_wait";
    case SpanStage::kQueue: return "queue";
    case SpanStage::kNicService: return "nic_service";
  }
  return "unknown";
}

/// One assembled per-IO span. POD so same-seed runs produce byte-identical
/// span streams.
struct IoSpan {
  std::uint32_t engine = 0;       // engine trace actor
  std::uint32_t period = 0;       // period the I/O was queued in
  std::uint64_t io_id = 0;        // dense per engine from 0
  std::int64_t token_source = 0;  // 0=reservation 1=pool (kIoIssue.b)
  SimTime queued_at = 0;
  SimTime issued_at = 0;
  SimTime completed_at = 0;
  SimDuration stage_ns[kSpanStages] = {};

  [[nodiscard]] SimDuration Total() const {
    SimDuration total = 0;
    for (const SimDuration d : stage_ns) total += d;
    return total;
  }
};

/// Assembly bookkeeping: how many spans were produced and what was left
/// over when the trace ended (truncated rings and engine stops surface
/// here instead of silently vanishing).
struct SpanAssemblyStats {
  std::uint64_t spans = 0;
  std::uint64_t dropped_unissued = 0;    // queued, never issued
  std::uint64_t dropped_uncompleted = 0; // issued, never completed
  std::uint64_t orphan_events = 0;       // issue/complete with no match
};

#if HAECHI_TRACE_ENABLED

inline constexpr bool kSpanAssemblyCompiled = true;

/// Streaming span assembler. Feed it each engine's events in time order —
/// Recorder::Merged(), a parsed CSV trace, or one engine ring after another
/// — then Finish(). Deterministic: the output is sorted by (engine, io_id),
/// so two runs of the same seed produce byte-identical span streams.
class SpanAssembler {
 public:
  void OnEvent(const TraceEvent& event);

  /// Flushes leftovers into the drop counters and returns all assembled
  /// spans sorted by (engine, io_id). The assembler is spent afterwards.
  [[nodiscard]] std::vector<IoSpan> Finish();

  [[nodiscard]] const SpanAssemblyStats& stats() const { return stats_; }

 private:
  struct PendingIo {
    std::uint64_t io_id = 0;
    std::uint32_t period = 0;
    SimTime queued_at = 0;
    SimDuration fetch0 = 0;  // cumulative fetch time at queue
    SimDuration wait0 = 0;   // cumulative wait time at queue
  };

  /// Issued, not yet completed spans of one engine, keyed by io_id: an
  /// open-addressing table (Robin Hood linear probing, backward-shift
  /// erase) whose home slot is io_id & mask. io_ids are dense per engine
  /// and only a window of them is in flight, so each id sits in its home
  /// slot and a lookup or erase touches one or two slots; any io_id a
  /// corrupt trace carries still works, just with probing.
  class InflightTable {
   public:
    /// Adds `span` unless its io_id is already in flight, in which case
    /// the table keeps the earlier span.
    void Insert(const IoSpan& span);
    /// Removes the span of `io_id` into `out`; false when absent.
    bool Take(std::uint64_t io_id, IoSpan& out);
    [[nodiscard]] std::size_t size() const { return live_; }

   private:
    struct Slot {
      bool used = false;
      IoSpan span;
    };
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    [[nodiscard]] std::size_t Find(std::uint64_t io_id) const;
    /// How far slot `i`'s entry sits past its home slot.
    [[nodiscard]] std::size_t Distance(std::size_t i) const {
      return (i - slots_[i].span.io_id) & (slots_.size() - 1);
    }
    void Grow();

    std::vector<Slot> slots_;  // power-of-two size, or empty
    std::size_t live_ = 0;
  };

  struct EngineState {
    // Cumulative interval accumulators. `*_open` holds the interval start
    // while one is open, -1 otherwise; Cum*(t) extends an open interval
    // to t without closing it.
    SimDuration fetch_cum = 0;
    SimTime fetch_open = -1;
    SimDuration wait_cum = 0;
    SimTime wait_open = -1;
    std::deque<PendingIo> pending;  // queued, not yet issued
    InflightTable inflight;         // issued, not yet completed

    [[nodiscard]] SimDuration CumFetch(SimTime t) const {
      return fetch_cum + (fetch_open >= 0 ? t - fetch_open : 0);
    }
    [[nodiscard]] SimDuration CumWait(SimTime t) const {
      return wait_cum + (wait_open >= 0 ? t - wait_open : 0);
    }
    void OpenFetch(SimTime t) {
      if (fetch_open < 0) fetch_open = t;
    }
    void CloseFetch(SimTime t) {
      if (fetch_open >= 0) {
        fetch_cum += t - fetch_open;
        fetch_open = -1;
      }
    }
    void OpenWait(SimTime t) {
      if (wait_open < 0) wait_open = t;
    }
    void CloseWait(SimTime t) {
      if (wait_open >= 0) {
        wait_cum += t - wait_open;
        wait_open = -1;
      }
    }
  };

  EngineState& StateFor(std::uint32_t actor);
  void DropLeftovers(const EngineState& state);

  // Engines sorted by actor. A parsed trace may name any 32-bit actor, so
  // this is a flat map rather than a vector indexed by actor; `last_`
  // remembers the previous hit, which is every hit when rings are fed one
  // engine at a time.
  std::vector<std::pair<std::uint32_t, EngineState>> engines_;
  std::size_t last_ = 0;
  std::vector<IoSpan> done_;
  SpanAssemblyStats stats_;
};

/// One-call convenience: assemble all spans from a merged event stream.
[[nodiscard]] std::vector<IoSpan> AssembleSpans(
    const std::vector<TraceEvent>& events, SpanAssemblyStats* stats = nullptr);

/// The same spans and stats as AssembleSpans(recorder.Merged()), assembled
/// from the engine rings in place: no merge, no copy of the trace. Needs
/// quiescent emitters, like Merged().
[[nodiscard]] std::vector<IoSpan> AssembleSpans(
    const Recorder& recorder, SpanAssemblyStats* stats = nullptr);

#else  // !HAECHI_TRACE_ENABLED

inline constexpr bool kSpanAssemblyCompiled = false;

// Notrace stubs: callers compile, assembly elides to an empty result.
[[nodiscard]] inline std::vector<IoSpan> AssembleSpans(
    const std::vector<TraceEvent>&, SpanAssemblyStats* stats = nullptr) {
  if (stats != nullptr) *stats = SpanAssemblyStats{};
  return {};
}
[[nodiscard]] inline std::vector<IoSpan> AssembleSpans(
    const Recorder&, SpanAssemblyStats* stats = nullptr) {
  if (stats != nullptr) *stats = SpanAssemblyStats{};
  return {};
}

#endif  // HAECHI_TRACE_ENABLED

}  // namespace haechi::obs
