#include "core/engine_core.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace haechi::core {

using obs::EventType;

EngineCore::EngineCore(EnginePort& port, ClientId id, const QosConfig& config)
    : port_(port),
      id_(id),
      config_(config),
      fetch_delta_(config.token_batch *
                   std::max<std::int64_t>(config.fetch_batch, 1)) {}

SimDuration EngineCore::Fetch(std::int64_t tag) {
  HAECHI_ASSERT(!fetch_in_flight_);
  const Status s = port_.PostFetch(fetch_delta_);
  if (!s.ok()) {
    HAECHI_LOG_WARN("engine %u: FAA post failed: %s", Raw(id_),
                    s.ToString().c_str());
    return OnFetchFailed();
  }
  fetch_in_flight_ = true;
  fetch_period_ = period_;
  ++stats_.faa_ops;
  Emit(EventType::kTokenFetch, fetch_delta_, tag);
  return 0;
}

EngineCore::FetchOutcome EngineCore::OnFetchResult(std::int64_t before,
                                                   std::int64_t tag,
                                                   bool waiting) {
  fetch_in_flight_ = false;
  faa_backoff_ = 0;  // a successful fetch resets the backoff ladder
  if (fetch_period_ != period_ || degraded_) {
    // The pool was re-initialised for a new period while this fetch was in
    // flight, so its tokens belong to the dead period; or the engine went
    // degraded meanwhile and may not hold pool tokens. Either way they are
    // dropped. Demand that prompted the fetch is still waiting.
    port_.Emit(EventType::kTokenDiscard, fetch_period_, before, 0,
               fetch_delta_);
    return FetchOutcome::kDiscarded;
  }
  const std::int64_t acquired = std::clamp<std::int64_t>(before, 0,
                                                         fetch_delta_);
  local_global_ += acquired;
  Emit(EventType::kTokenFetchDone, before, acquired, fetch_delta_);
  if (acquired > 0) {
    // Tokens were found, so a T4 retry armed by an earlier probe of the
    // same round (a dry shard) no longer applies.
    pool_retry_until_ = 0;
    return FetchOutcome::kAcquired;
  }
  if (!waiting) return FetchOutcome::kAcquired;
  // Step T4: wait for token conversion or the next period, polling the
  // pool at the retry cadence.
  pool_retry_until_ = port_.Now() + config_.pool_retry_interval;
  Emit(EventType::kPoolEmpty, before, tag);
  return FetchOutcome::kPoolEmpty;
}

SimDuration EngineCore::OnFetchFailed() {
  fetch_in_flight_ = false;
  ++stats_.faa_failures;
  Emit(EventType::kTokenFetchFail, faa_backoff_);
  // Exponential backoff: transient fabric faults (dropped FAA, NAK burst)
  // resolve in a retry or two; a dead data node stops costing more than
  // one probe per faa_retry_backoff_max. The ladder steps only when no
  // retry wake-up is armed yet.
  if (faa_retry_armed_) return 0;
  faa_backoff_ = faa_backoff_ == 0
                     ? config_.faa_retry_backoff
                     : std::min<SimDuration>(faa_backoff_ * 2,
                                             config_.faa_retry_backoff_max);
  if (faa_backoff_ >= config_.faa_retry_backoff_max &&
      !faa_exhausted_signalled_) {
    // The backoff ladder is pinned at its ceiling: every further fetch this
    // period is a once-per-backoff_max probe. Signalled once per period so
    // the watchdog sees saturation, not each probe.
    faa_exhausted_signalled_ = true;
    Emit(EventType::kFaaExhausted, faa_backoff_);
  }
  faa_retry_armed_ = true;
  return faa_backoff_;
}

bool EngineCore::FaaRetryDue(std::uint32_t armed_in_period) {
  faa_retry_armed_ = false;
  if (!started_ || period_ != armed_in_period) return false;
  ++stats_.faa_retries;
  return true;
}

bool EngineCore::PoolRetryDue(std::uint32_t armed_in_period) {
  pool_retry_until_ = 0;
  return period_ == armed_in_period;
}

void EngineCore::PeriodStart(const PeriodStartMsg& msg) {
  const bool resync = degraded_;
  if (degraded_) {
    // The monitor is back: re-sync onto its provisioning and leave
    // reservation-only pacing. Demand that backlogged while the monitor
    // was down would compete with reservation traffic for many periods
    // and make recovery unbounded, so shed all but a bounded catch-up
    // backlog (oldest first — their submitters have long moved on, the
    // same way a node crash drops in-flight completions).
    std::int64_t shed = 0;
    if (config_.recovery_backlog_periods > 0) {
      shed = port_.ShedQueued(
          static_cast<std::size_t>(std::max<std::int64_t>(provisioned_, 0)) *
          config_.recovery_backlog_periods);
      stats_.shed_on_recovery += static_cast<std::uint64_t>(shed);
    }
    degraded_ = false;
    Emit(EventType::kDegradedExit, static_cast<std::int64_t>(degraded_count_),
         shed);
    degraded_count_ = 0;
  }
  ++stats_.periods_started;
  period_ = msg.period;
  Emit(EventType::kEnginePeriodStart, msg.reservation_tokens, msg.limit);
  // Fresh reservation tokens *replace* leftovers (reservation and global):
  // tokens never carry across periods. X starts at the full reservation
  // and falls linearly to 0 at the period end.
  xi_reservation_ = msg.reservation_tokens;
  provisioned_ = msg.reservation_tokens;
  decay_x_ = static_cast<double>(msg.reservation_tokens);
  const double decay_per_tick = static_cast<double>(msg.reservation_tokens) *
                                static_cast<double>(config_.token_tick) /
                                static_cast<double>(config_.period);
  decay_step_ = decay_per_tick;
  if (resync) {
    // I/Os issued against the last synthetic degraded boundary are still
    // in flight; the fresh grant replaces that synthetic split rather
    // than stacking on top of it. Without the discount the re-sync
    // double-issues up to a full reservation, and the flooded per-flow
    // queues at the data node equalise service across clients for many
    // periods afterwards (unbounded recovery).
    xi_reservation_ = std::max<std::int64_t>(xi_reservation_ - outstanding_, 0);
    decay_x_ = static_cast<double>(xi_reservation_);
  }
  local_global_ = 0;
  limit_ = msg.limit;
  stats_.completed_this_period = 0;
  stats_.issued_this_period = 0;
  pool_retry_until_ = 0;
  faa_backoff_ = 0;  // a fresh period forgives past fetch failures
  faa_exhausted_signalled_ = false;
  started_ = true;
  stopped_ = false;
  period_started_at_ = port_.Now();
  // Reporting stops until the monitor asks again this period.
  reporting_ = false;
}

bool EngineCore::ReportRequest() {
  // Duplicate requests (the monitor's half-lease retransmission) are
  // idempotent: an already-reporting engine just keeps its cadence. A
  // stopped engine stays silent: its slot may already be quarantined for
  // reuse by the client's next incarnation.
  if (stopped_ || reporting_) return false;
  reporting_ = true;
  WriteReport();  // the first report goes out immediately
  return true;
}

void EngineCore::RecoverySync() {
  // Post-restart handshake: prove liveness with an immediate report write.
  // Not a period boundary — a degraded engine stays degraded until the
  // first real PeriodStart re-provisions it.
  if (started_) WriteReport();
}

void EngineCore::Stop() {
  if (started_) Emit(EventType::kEngineStop);
  started_ = false;
  stopped_ = true;
  reporting_ = false;
  degraded_ = false;
  degraded_count_ = 0;
}

bool EngineCore::TickDegraded() {
  // Degraded-mode detection and synthetic boundaries (DESIGN.md §15). The
  // grace window strictly exceeds one period (config contract), so a
  // healthy run — where every tick sees now - period_started_at_ <= period
  // plus scheduling jitter — never trips this.
  if (!started_ || config_.degraded_grace_permille == 0) return false;
  const SimDuration since = port_.Now() - period_started_at_;
  if (!degraded_) {
    const SimDuration grace =
        config_.period / 1000 * config_.degraded_grace_permille;
    if (since < grace) return false;
    EnterDegraded(grace);
    return true;
  }
  if (since < config_.period ||
      degraded_count_ >= config_.degraded_max_periods) {
    return false;
  }
  DegradedPeriod();
  return true;
}

void EngineCore::EnterDegraded(SimDuration grace) {
  degraded_ = true;
  degraded_count_ = 0;
  ++stats_.degraded_entries;
  HAECHI_LOG_WARN(
      "engine %u: monitor silent for %lld ns; entering reservation-only "
      "degraded mode",
      Raw(id_), static_cast<long long>(grace));
  Emit(EventType::kDegradedEnter, provisioned_, grace);
  DegradedPeriod();
}

void EngineCore::DegradedPeriod() {
  // One synthetic reservation-only boundary: re-arm the last provisioned
  // split and keep pacing on the real period cadence. Global tokens are
  // never carried or fetched — the pool belongs to the (dead) monitor.
  const std::int64_t last_provisioned_reservation = provisioned_;
  ++degraded_count_;
  ++stats_.degraded_periods;
  period_started_at_ += config_.period;
  xi_reservation_ = last_provisioned_reservation;
  decay_x_ = static_cast<double>(last_provisioned_reservation);
  local_global_ = 0;
  stats_.issued_this_period = 0;
  pool_retry_until_ = 0;
  faa_backoff_ = 0;
  faa_exhausted_signalled_ = false;
  Emit(EventType::kDegradedPeriod, xi_reservation_,
       static_cast<std::int64_t>(degraded_count_));
}

void EngineCore::Decay() {
  if (!started_) return;
  decay_x_ = std::max(0.0, decay_x_ - decay_step_);
  const auto bound = static_cast<std::int64_t>(std::floor(decay_x_));
  // Insufficient demand: surrender reservation tokens above the backlog
  // bound X. (They are reclaimed by the monitor's token conversion once
  // the client reports.)
  if (xi_reservation_ > bound) {
    Emit(EventType::kTokenDecay, xi_reservation_ - bound, bound);
    xi_reservation_ = bound;
  }
}

void EngineCore::ReportTick() {
  if (reporting_) WriteReport();
}

void EngineCore::WriteReport() {
  // The reported residual is the client's outstanding *claim* on the rest
  // of the period: unconsumed reservation tokens (decay-adjusted for
  // insufficient demand), plus locally-held global tokens, plus I/Os
  // already issued but not yet completed. Reporting claims — rather than
  // just xi_reservation — keeps the monitor's token conversion from
  // re-granting capacity that in-flight I/Os will consume (the paper's L,
  // "the maximum number of outstanding reservation I/Os", generalised to
  // all token-backed claims; see DESIGN.md §6).
  const std::int64_t claims = xi_reservation_ + local_global_ + outstanding_;
  const std::uint64_t packed = PackReport(
      period_, static_cast<std::uint64_t>(std::max<std::int64_t>(claims, 0)),
      static_cast<std::uint64_t>(
          std::max<std::int64_t>(stats_.completed_this_period, 0)),
      report_seq_++);
  const Status s = port_.PostReport(packed);
  if (!s.ok()) {
    ++stats_.report_failures;
    HAECHI_LOG_WARN("engine %u: report write failed: %s", Raw(id_),
                    s.ToString().c_str());
    return;
  }
  ++stats_.report_writes;
  Emit(EventType::kReportWrite,
       static_cast<std::int64_t>(ReportResidual(packed)),
       static_cast<std::int64_t>(ReportCompleted(packed)),
       static_cast<std::int64_t>(stats_.report_writes));
}

}  // namespace haechi::core
