// The client-side QoS engine's protocol (paper §II-D), independent of how
// I/Os are queued, how the pool word and the report slot are reached, and
// how time passes. Per client:
//   * each I/O consumes a reservation token (granted by the monitor each
//     period) or, once those run out, a global token fetched from the data
//     node's pool with a batched remote FAA (step T3), within the limit L_i;
//   * an empty pool is polled at pool_retry_interval (step T4); failed
//     fetches back off exponentially;
//   * unused reservation tokens decay every token tick toward the backlog
//     bound X;
//   * once asked, the client silently reports its claims and completions,
//     one 8-byte one-sided WRITE per report interval;
//   * when the monitor goes silent past the grace window the engine paces
//     itself reservation-only (degraded mode, DESIGN.md §15).
//
// EngineCore holds each of those rules once and reaches the world only
// through EnginePort, which two thin adapters implement: core::
// ClientQosEngine (simulated verbs) and runtime::ThreadedEngine (shared
// atomics, one mutex); tests use a scripted fake (engine_core_test.cpp).
// The core is not thread-safe and owns no timers and no I/O queue: the
// adapter drives the token tick, the report cadence and fetch results,
// serialised, and schedules the wake-ups whose delays the core returns.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/wire.hpp"
#include "obs/trace.hpp"

namespace haechi::core {

/// Everything EngineCore needs from its transport.
class EnginePort {
 public:
  EnginePort() = default;
  EnginePort(const EnginePort&) = delete;
  EnginePort& operator=(const EnginePort&) = delete;
  virtual ~EnginePort() = default;

  /// Protocol time (period starts, the end guard, retry deadlines).
  [[nodiscard]] virtual SimTime Now() const = 0;

  /// Posts one token fetch: a fetch-and-add of -delta on the pool word.
  /// Its outcome arrives later through EngineCore::OnFetchResult or
  /// OnFetchFailed; a non-OK return means the post itself was rejected.
  virtual Status PostFetch(std::int64_t delta) = 0;

  /// Posts one packed report word to the client's report slot.
  virtual Status PostReport(std::uint64_t packed) = 0;

  /// Drops the oldest queued requests beyond `keep` and returns how many
  /// went. A transport without an engine-side queue returns 0.
  virtual std::int64_t ShedQueued(std::size_t keep) = 0;

  virtual void Emit(obs::EventType type, std::uint32_t period, std::int64_t a,
                    std::int64_t b, std::int64_t c) = 0;
};

class EngineCore {
 public:
  struct Stats {
    std::uint64_t periods_started = 0;
    std::int64_t completed_this_period = 0;   // N_i
    std::int64_t issued_this_period = 0;
    std::int64_t completed_total = 0;
    std::uint64_t faa_ops = 0;
    std::uint64_t report_writes = 0;
    std::uint64_t rejected_submits = 0;
    std::uint64_t limit_throttle_events = 0;
    std::int64_t tokens_from_reservation = 0;
    std::int64_t tokens_from_pool = 0;
    std::uint64_t over_reserve_hints = 0;
    /// Token fetches that failed (post rejected or error completion).
    std::uint64_t faa_failures = 0;
    /// Backed-off re-attempts after failed fetches.
    std::uint64_t faa_retries = 0;
    /// Report writes that failed (post rejected or error completion).
    std::uint64_t report_failures = 0;
    /// Degraded mode (DESIGN.md §15): times the engine fell back to
    /// reservation-only pacing because the monitor went silent, and the
    /// synthetic reservation-only periods it self-issued while degraded.
    std::uint64_t degraded_entries = 0;
    std::uint64_t degraded_periods = 0;
    /// Stale queued requests dropped on monitor re-sync (bounded recovery;
    /// see QosConfig::recovery_backlog_periods).
    std::uint64_t shed_on_recovery = 0;
  };

  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t ReservationTokens() const { return xi_reservation_; }
  [[nodiscard]] std::int64_t PoolTokens() const { return local_global_; }
  [[nodiscard]] std::uint32_t CurrentPeriod() const { return period_; }
  /// True while the engine writes a report every report interval.
  [[nodiscard]] bool Reporting() const { return reporting_; }
  /// True while the engine is in reservation-only degraded mode (the
  /// monitor lease went silent past the grace window; DESIGN.md §15).
  [[nodiscard]] bool Degraded() const { return degraded_; }

 protected:
  /// The core keeps a reference to `port`; it never calls it from the
  /// constructor.
  EngineCore(EnginePort& port, ClientId id, const QosConfig& config);

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;
  ~EngineCore() = default;

  /// The grant rule's verdict for one TakeTokens call.
  struct Take {
    std::int64_t tokens = 0;            // granted and booked as issued
    std::int64_t from_reservation = 0;  // the first this many of them
    /// Nothing granted only because the local stock is dry: a fetch may
    /// be due (FetchDue).
    bool dry = false;
  };

  /// Grants up to `want` tokens — reservation first, then fetched pool
  /// tokens — within the limit L_i and max_backend_outstanding, and books
  /// them as issued and outstanding. Makes no port call.
  Take TakeTokens(std::int64_t want);
  /// `n` issued I/Os completed; returns the I/Os still outstanding.
  std::int64_t OnCompleted(std::int64_t n);

  /// True when a token fetch may be posted at `now`: none in flight, no
  /// empty-pool retry pending, outside faa_end_guard, not degraded. The
  /// adapter passes its own clock so a dry grant path makes no port call
  /// unless a fetch is actually posted.
  [[nodiscard]] bool FetchDue(SimTime now) const;
  /// Posts one fetch of token_batch * fetch_batch tokens; `tag` is the
  /// transport's fetch target (the pool shard), traced in kTokenFetch.b
  /// and kPoolEmpty.b. Returns the backoff after which the adapter should
  /// call FaaRetryDue, or 0 when no wake-up is needed.
  SimDuration Fetch(std::int64_t tag = 0);

  enum class FetchOutcome {
    kAcquired,   // tokens (possibly none) added to the local stock
    kDiscarded,  // stale period or degraded: the tokens were dropped
    kPoolEmpty,  // nothing acquired; call PoolRetryDue after
                 // pool_retry_interval
  };
  /// A fetch completed having seen the pool at `before`. `waiting` says
  /// whether demand is still parked (an empty pool arms T4 only then).
  FetchOutcome OnFetchResult(std::int64_t before, std::int64_t tag,
                             bool waiting);
  /// A posted fetch completed in error: steps the backoff ladder and
  /// returns as Fetch() does.
  SimDuration OnFetchFailed();
  /// The wake-ups armed by Fetch/OnFetchFailed and by kPoolEmpty fired.
  /// Both return true when the engine should try to issue again.
  bool FaaRetryDue(std::uint32_t armed_in_period);
  bool PoolRetryDue(std::uint32_t armed_in_period);

  /// Control messages. PeriodStart re-provisions (leaving degraded mode
  /// with a bounded shed) and stops reporting until asked again;
  /// ReportRequest returns true when the adapter must start its report
  /// cadence (the first report has already gone out).
  void PeriodStart(const PeriodStartMsg& msg);
  bool ReportRequest();
  void RecoverySync();
  void OverReserveHint() { ++stats_.over_reserve_hints; }
  /// Quiesces the engine until the next PeriodStart.
  void Stop();

  /// The token tick, in two halves so the adapter can issue between them:
  /// TickDegraded() enters degraded mode after the grace window or starts
  /// a synthetic period, returning true when it re-armed the reservation
  /// split; Decay() then moves the tokens above X back to the system.
  bool TickDegraded();
  void Decay();
  /// Writes one report when reporting.
  void ReportTick();

  [[nodiscard]] bool Started() const { return started_; }
  [[nodiscard]] bool Stopped() const { return stopped_; }
  [[nodiscard]] std::int64_t FetchDelta() const { return fetch_delta_; }
  [[nodiscard]] const QosConfig& config() const { return config_; }
  Stats& mutable_stats() { return stats_; }

 private:
  void EnterDegraded(SimDuration grace);
  void DegradedPeriod();
  void WriteReport();
  void Emit(obs::EventType type, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0) {
    port_.Emit(type, period_, a, b, c);
  }

  EnginePort& port_;
  ClientId id_;
  QosConfig config_;
  /// Tokens drawn per remote FAA: token_batch * fetch_batch.
  std::int64_t fetch_delta_;

  // Token state: the paper's xi_reservation, the backlog bound X and its
  // per-tick step, the local batch of global tokens, and the limit L_i.
  std::int64_t xi_reservation_ = 0;
  double decay_x_ = 0.0;
  double decay_step_ = 0.0;
  std::int64_t local_global_ = 0;
  std::int64_t limit_ = 0;  // <=0: unlimited
  std::int64_t outstanding_ = 0;
  std::uint32_t period_ = 0;
  bool started_ = false;
  // Stop() was called and no PeriodStart has arrived since: control
  // messages that would restart a cadence are ignored.
  bool stopped_ = false;
  bool reporting_ = false;
  SimTime period_started_at_ = 0;

  // Degraded mode (DESIGN.md §15): when no period start arrives within the
  // grace window the engine paces itself from the last provisioned
  // reservation — no free-token FAA, synthetic boundaries aligned to the
  // real cadence, bounded by degraded_max_periods. completed_this_period
  // and period_ are deliberately NOT reset on synthetic boundaries (report
  // monotonicity: the recovered monitor must never read a count rollback).
  bool degraded_ = false;
  std::uint32_t degraded_count_ = 0;
  std::int64_t provisioned_ = 0;

  // Fetch state.
  bool fetch_in_flight_ = false;
  std::uint32_t fetch_period_ = 0;
  // After an empty-pool fetch, no re-fetch until this instant has passed
  // or the retry wake-up cleared it (step T4); 0 = none pending.
  SimTime pool_retry_until_ = 0;
  // Failure backoff: current delay (0 = healthy, next failure starts at
  // config_.faa_retry_backoff), doubling per consecutive failure.
  SimDuration faa_backoff_ = 0;
  bool faa_retry_armed_ = false;
  // kFaaExhausted already emitted this period (one saturation signal per
  // period, not one per probe).
  bool faa_exhausted_signalled_ = false;

  // Report sequence number; makes consecutive report words bitwise
  // distinct so the monitor's lease sees an idle client as alive.
  std::uint8_t report_seq_ = 0;
  Stats stats_;
};

// The grant path runs once per I/O; defined here so it inlines into the
// adapters' issue loops.

inline EngineCore::Take EngineCore::TakeTokens(std::int64_t want) {
  Take take;
  if (limit_ > 0) {
    const std::int64_t left = limit_ - stats_.issued_this_period;
    if (left <= 0) {
      ++stats_.limit_throttle_events;
      return take;  // throttled until the next period
    }
    want = std::min(want, left);
  }
  // A completion frees backend room and the adapter tries again then.
  want = std::min(want, static_cast<std::int64_t>(
                            config_.max_backend_outstanding) -
                            outstanding_);
  if (want <= 0) return take;
  take.from_reservation = std::min(want, xi_reservation_);
  const std::int64_t from_pool =
      std::min(want - take.from_reservation, local_global_);
  take.tokens = take.from_reservation + from_pool;
  take.dry = take.tokens == 0;
  xi_reservation_ -= take.from_reservation;
  local_global_ -= from_pool;
  stats_.tokens_from_reservation += take.from_reservation;
  stats_.tokens_from_pool += from_pool;
  stats_.issued_this_period += take.tokens;
  outstanding_ += take.tokens;
  return take;
}

inline std::int64_t EngineCore::OnCompleted(std::int64_t n) {
  outstanding_ -= n;
  stats_.completed_this_period += n;
  stats_.completed_total += n;
  return outstanding_;
}

inline bool EngineCore::FetchDue(SimTime now) const {
  // No fetch at all while degraded: with the monitor down the pool is
  // never replenished, and a recovered monitor re-initialises it — a
  // degraded FAA would either drain a stale word or race the re-init.
  if (degraded_ || fetch_in_flight_) return false;
  if (pool_retry_until_ != 0 && now <= pool_retry_until_) return false;
  // No fetch near the period end: a batch still in flight at the rollover
  // would be discarded (see QosConfig::faa_end_guard).
  return now - period_started_at_ < config_.period - config_.faa_end_guard;
}

}  // namespace haechi::core
