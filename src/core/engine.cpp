#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace haechi::core {

namespace {

// wr_id tag bits distinguish the engine's own QoS ops on its send CQ.
constexpr std::uint64_t kWrTagFaa = 1ULL << 62;
constexpr std::uint64_t kWrTagReport = 1ULL << 63;

}  // namespace

ClientQosEngine::ClientQosEngine(sim::Simulator& sim, ClientId id,
                                 const QosConfig& config, rdma::Node& node,
                                 rdma::QueuePair& qos_qp,
                                 rdma::QueuePair& ctrl_qp,
                                 const QosWiring& wiring)
    : sim_(sim),
      id_(id),
      trace_actor_(Raw(id)),
      config_(config),
      node_(node),
      qos_qp_(qos_qp),
      ctrl_qp_(ctrl_qp),
      wiring_(wiring) {
  // Control messages are small; a shallow ring of receive buffers suffices
  // (the monitor sends at most a couple per check interval).
  ctrl_recv_buffers_.resize(16);
  for (std::size_t i = 0; i < ctrl_recv_buffers_.size(); ++i) {
    ctrl_recv_buffers_[i].resize(64);
    const Status s =
        ctrl_qp_.PostRecv(i, std::span<std::byte>(ctrl_recv_buffers_[i]));
    HAECHI_ASSERT(s.ok());
  }
  ctrl_qp_.recv_cq().SetNotify(
      [this](const rdma::WorkCompletion& wc) { HandleCtrl(wc); });
  ctrl_qp_.send_cq().SetNotify([](const rdma::WorkCompletion&) {});

  report_buffer_.resize(sizeof(std::uint64_t));
  report_mr_ = &node_.pd().Register(
      std::span<std::byte>(report_buffer_),
      rdma::access::kLocalRead | rdma::access::kLocalWrite);
  qos_qp_.send_cq().SetNotify(
      [this](const rdma::WorkCompletion& wc) { HandleQosCompletion(wc); });

  token_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config_.token_tick, [this] { TokenTick(); });
  report_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config_.report_interval, [this] { WriteReport(); });
}

Status ClientQosEngine::Submit(std::uint64_t key, CompleteFn done,
                               bool is_write) {
  HAECHI_EXPECTS(done != nullptr);
  if (backend_ == nullptr) {
    return ErrFailedPrecondition("no I/O backend configured");
  }
  if (queue_.size() >= config_.max_engine_queue) {
    ++stats_.rejected_submits;
    return ErrResourceExhausted("engine queue full");
  }
  const std::uint64_t io_id = next_io_id_++;
  queue_.push_back(Pending{key, is_write, io_id, std::move(done)});
  HAECHI_TRACE_DETAIL(obs::ActorKind::kEngine, trace_actor_,
                      obs::EventType::kIoQueued, period_,
                      static_cast<std::int64_t>(io_id),
                      static_cast<std::int64_t>(queue_.size()));
  TryIssue();
  return Status::Ok();
}

void ClientQosEngine::HandleCtrl(const rdma::WorkCompletion& wc) {
  HAECHI_ASSERT(wc.opcode == rdma::Opcode::kRecv);
  auto& buffer = ctrl_recv_buffers_[wc.wr_id];
  CtrlType type;
  HAECHI_ASSERT(wc.byte_len >= sizeof(type));
  std::memcpy(&type, buffer.data(), sizeof(type));
  switch (type) {
    case CtrlType::kPeriodStart: {
      PeriodStartMsg msg;
      std::memcpy(&msg, buffer.data(), sizeof(msg));
      OnPeriodStart(msg);
      break;
    }
    case CtrlType::kReportRequest:
      OnReportRequest();
      break;
    case CtrlType::kOverReserveHint:
      ++stats_.over_reserve_hints;
      break;
    case CtrlType::kRecoverySync:
      // Post-restart handshake: prove liveness with an immediate report
      // write. Not a period boundary — a degraded engine stays degraded
      // until the first real PeriodStart re-provisions it.
      if (started_) WriteReport();
      break;
  }
  const Status s =
      ctrl_qp_.PostRecv(wc.wr_id, std::span<std::byte>(buffer));
  HAECHI_ASSERT(s.ok());
}

void ClientQosEngine::OnPeriodStart(const PeriodStartMsg& msg) {
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
      const auto keep =
          static_cast<std::size_t>(
              std::max<std::int64_t>(last_provisioned_reservation_, 0)) *
          config_.recovery_backlog_periods;
      if (queue_.size() > keep) {
        shed = static_cast<std::int64_t>(queue_.size() - keep);
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(shed));
        stats_.shed_on_recovery += static_cast<std::uint64_t>(shed);
      }
    }
    degraded_ = false;
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                       obs::EventType::kDegradedExit, period_,
                       static_cast<std::int64_t>(degraded_count_), shed);
    degraded_count_ = 0;
  }
  ++stats_.periods_started;
  period_ = msg.period;
  HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                     obs::EventType::kEnginePeriodStart, period_,
                     msg.reservation_tokens, msg.limit);
  // Fresh reservation tokens *replace* leftovers (reservation and global).
  xi_reservation_ = msg.reservation_tokens;
  last_provisioned_reservation_ = msg.reservation_tokens;
  decay_x_ = static_cast<double>(msg.reservation_tokens);
  decay_per_tick_ = static_cast<double>(msg.reservation_tokens) *
                    static_cast<double>(config_.token_tick) /
                    static_cast<double>(config_.period);
  if (resync) {
    // I/Os issued against the last synthetic degraded boundary are still
    // in flight; the fresh grant replaces that synthetic split rather
    // than stacking on top of it. Without the discount the re-sync
    // double-issues up to a full reservation, and the flooded per-flow
    // queues at the data node equalise service across clients for many
    // periods afterwards (unbounded recovery).
    xi_reservation_ = std::max<std::int64_t>(
        xi_reservation_ - static_cast<std::int64_t>(backend_outstanding_),
        0);
    decay_x_ = static_cast<double>(xi_reservation_);
  }
  local_global_ = 0;
  limit_ = msg.limit;
  stats_.completed_this_period = 0;
  stats_.issued_this_period = 0;
  pool_retry_armed_ = false;
  faa_backoff_ = 0;  // a fresh period forgives past fetch failures
  faa_exhausted_signalled_ = false;
  started_ = true;
  period_started_at_ = sim_.Now();
  // Reporting stops until the monitor asks again this period.
  report_timer_->Stop();
  if (!token_timer_->Running()) token_timer_->Start();
  TryIssue();
}

void ClientQosEngine::OnReportRequest() {
  // Duplicate requests (the monitor's half-lease retransmission) are
  // idempotent: an already-reporting engine just keeps its cadence.
  if (!report_timer_->Running()) {
    // First report goes out immediately; the cadence continues from now.
    WriteReport();
    report_timer_->Start();
  }
}

void ClientQosEngine::Stop() {
  if (started_) {
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                       obs::EventType::kEngineStop, period_);
  }
  started_ = false;
  degraded_ = false;
  degraded_count_ = 0;
  token_timer_->Stop();
  report_timer_->Stop();
  queue_.clear();
}

void ClientQosEngine::TokenTick() {
  if (!started_) return;
  // Degraded-mode detection and synthetic boundaries (DESIGN.md §15). The
  // grace window strictly exceeds one period (config contract), so a
  // healthy run — where every tick sees now - period_started_at_ <= period
  // — never trips this.
  if (config_.degraded_grace_permille > 0) {
    const SimDuration since = sim_.Now() - period_started_at_;
    if (!degraded_) {
      const SimDuration grace = config_.period / 1000 *
                                config_.degraded_grace_permille;
      if (since >= grace) EnterDegraded(grace);
    } else if (since >= config_.period &&
               degraded_count_ < config_.degraded_max_periods) {
      DegradedPeriod();
    }
  }
  decay_x_ = std::max(0.0, decay_x_ - decay_per_tick_);
  const auto bound = static_cast<std::int64_t>(std::floor(decay_x_));
  // Insufficient demand: surrender reservation tokens above the backlog
  // bound X. (They are reclaimed by the monitor's token conversion once
  // the client reports.)
  if (xi_reservation_ > bound) {
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                       obs::EventType::kTokenDecay, period_,
                       xi_reservation_ - bound, bound);
    xi_reservation_ = bound;
  }
}

void ClientQosEngine::EnterDegraded(SimDuration grace) {
  degraded_ = true;
  degraded_count_ = 0;
  ++stats_.degraded_entries;
  HAECHI_LOG_WARN(
      "engine %u: monitor silent for %lld ns; entering reservation-only "
      "degraded mode",
      Raw(id_), static_cast<long long>(grace));
  HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                     obs::EventType::kDegradedEnter, period_,
                     last_provisioned_reservation_, grace);
  DegradedPeriod();
}

void ClientQosEngine::DegradedPeriod() {
  // One synthetic reservation-only boundary: re-arm the last provisioned
  // split and keep pacing on the real period cadence. Global tokens are
  // never carried or fetched — the pool belongs to the (dead) monitor.
  ++degraded_count_;
  ++stats_.degraded_periods;
  period_started_at_ += config_.period;
  xi_reservation_ = last_provisioned_reservation_;
  decay_x_ = static_cast<double>(last_provisioned_reservation_);
  local_global_ = 0;
  stats_.issued_this_period = 0;
  pool_retry_armed_ = false;
  faa_backoff_ = 0;
  faa_exhausted_signalled_ = false;
  HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                     obs::EventType::kDegradedPeriod, period_,
                     xi_reservation_,
                     static_cast<std::int64_t>(degraded_count_));
  TryIssue();
}

void ClientQosEngine::WriteReport() {
  // The reported residual is the client's outstanding *claim* on the rest
  // of the period: unconsumed reservation tokens (decay-adjusted for
  // insufficient demand), plus locally-held global tokens, plus I/Os
  // already issued but not yet completed. Reporting claims — rather than
  // just xi_reservation — keeps the monitor's token conversion from
  // re-granting capacity that in-flight I/Os will consume (the paper's L,
  // "the maximum number of outstanding reservation I/Os", generalised to
  // all token-backed claims; see DESIGN.md §6).
  const std::int64_t claims =
      xi_reservation_ + local_global_ +
      static_cast<std::int64_t>(backend_outstanding_);
  const std::uint64_t packed = PackReport(
      period_, static_cast<std::uint64_t>(std::max<std::int64_t>(claims, 0)),
      static_cast<std::uint64_t>(
          std::max<std::int64_t>(stats_.completed_this_period, 0)),
      report_seq_++);
  std::memcpy(report_buffer_.data(), &packed, sizeof(packed));
  const Status s = qos_qp_.PostWrite(
      kWrTagReport | next_wr_id_++,
      std::span<const std::byte>(report_buffer_), wiring_.report_slot_addr,
      wiring_.report_slot_rkey);
  if (s.ok()) {
    ++stats_.report_writes;
    HAECHI_TRACE_EVENT(
        obs::ActorKind::kEngine, trace_actor_, obs::EventType::kReportWrite,
        period_,
        static_cast<std::int64_t>(ReportResidual(packed)),
        static_cast<std::int64_t>(ReportCompleted(packed)),
        static_cast<std::int64_t>(stats_.report_writes));
  } else {
    ++stats_.report_failures;
    HAECHI_LOG_WARN("engine %u: report write failed: %s", Raw(id_),
                    s.ToString().c_str());
  }
}

void ClientQosEngine::PostTokenFetch() {
  HAECHI_ASSERT(!faa_in_flight_);
  const Status s = qos_qp_.PostFetchAdd(kWrTagFaa | next_wr_id_++,
                                        wiring_.global_pool_addr,
                                        wiring_.global_pool_rkey,
                                        -config_.token_batch);
  if (!s.ok()) {
    ++stats_.faa_failures;
    HAECHI_LOG_WARN("engine %u: FAA post failed: %s", Raw(id_),
                    s.ToString().c_str());
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                       obs::EventType::kTokenFetchFail, period_,
                       faa_backoff_);
    ArmFaaRetry();
    return;
  }
  faa_in_flight_ = true;
  faa_period_ = period_;
  ++stats_.faa_ops;
  HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                     obs::EventType::kTokenFetch, period_,
                     config_.token_batch);
}

void ClientQosEngine::ArmFaaRetry() {
  // Exponential backoff: transient fabric faults (dropped FAA, NAK burst)
  // resolve in a retry or two; a dead data node stops costing more than
  // one probe per faa_retry_backoff_max.
  if (faa_retry_armed_) return;
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
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                       obs::EventType::kFaaExhausted, period_, faa_backoff_);
  }
  faa_retry_armed_ = true;
  const std::uint32_t at_period = period_;
  sim_.ScheduleAfter(faa_backoff_, [this, at_period] {
    faa_retry_armed_ = false;
    if (!started_ || period_ != at_period) return;
    ++stats_.faa_retries;
    TryIssue();
  });
}

void ClientQosEngine::HandleQosCompletion(const rdma::WorkCompletion& wc) {
  if ((wc.wr_id & kWrTagReport) != 0) {  // report write acks
    if (!wc.ok()) ++stats_.report_failures;
    return;
  }
  if ((wc.wr_id & kWrTagFaa) == 0) return;
  faa_in_flight_ = false;
  if (!wc.ok()) {
    ++stats_.faa_failures;
    HAECHI_LOG_WARN("engine %u: FAA failed: %s", Raw(id_),
                    std::string(rdma::ToString(wc.status)).c_str());
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                       obs::EventType::kTokenFetchFail, period_,
                       faa_backoff_);
    ArmFaaRetry();
    return;
  }
  faa_backoff_ = 0;  // a successful fetch resets the backoff ladder
  if (faa_period_ != period_) {
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                       obs::EventType::kTokenDiscard, faa_period_,
                       static_cast<std::int64_t>(wc.atomic_result));
    // The pool was re-initialised for a new period while this fetch was in
    // flight; its tokens belong to the dead period and are discarded. The
    // demand that prompted it is still queued — fetch again against the
    // current period's pool.
    TryIssue();
    return;
  }
  const auto available = static_cast<std::int64_t>(wc.atomic_result);
  const std::int64_t acquired =
      std::clamp<std::int64_t>(available, 0, config_.token_batch);
  local_global_ += acquired;
  HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                     obs::EventType::kTokenFetchDone, period_, available,
                     acquired);
  if (acquired == 0 && !queue_.empty() && !pool_retry_armed_) {
    // Step T4: wait for token conversion or the next period, polling the
    // pool at the retry cadence.
    pool_retry_armed_ = true;
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_,
                       obs::EventType::kPoolEmpty, period_, available);
    const std::uint32_t at_period = period_;
    sim_.ScheduleAfter(config_.pool_retry_interval, [this, at_period] {
      pool_retry_armed_ = false;
      if (period_ == at_period) TryIssue();
    });
    return;
  }
  TryIssue();
}

void ClientQosEngine::TryIssue() {
  if (!started_) return;
  while (!queue_.empty()) {
    if (limit_ > 0 && stats_.issued_this_period >= limit_) {
      ++stats_.limit_throttle_events;
      return;  // throttled until the next period
    }
    if (backend_outstanding_ >= config_.max_backend_outstanding) {
      return;  // resumes when a completion frees a slot
    }
    if (xi_reservation_ > 0) {
      --xi_reservation_;
      ++stats_.tokens_from_reservation;
      IssueOne(/*token_source=*/0);
      continue;
    }
    if (local_global_ > 0) {
      --local_global_;
      ++stats_.tokens_from_pool;
      IssueOne(/*token_source=*/1);
      continue;
    }
    // No fetch near the period end: a batch still in flight at the
    // rollover would be discarded (see QosConfig::faa_end_guard). No fetch
    // at all while degraded: with the monitor down the pool is never
    // replenished, and a recovered monitor re-initialises it — a degraded
    // FAA would either drain a stale word or race the re-init.
    const bool near_end = sim_.Now() - period_started_at_ >=
                          config_.period - config_.faa_end_guard;
    if (!degraded_ && !faa_in_flight_ && !pool_retry_armed_ && !near_end) {
      PostTokenFetch();
    }
    return;
  }
}

void ClientQosEngine::IssueOne(std::int64_t token_source) {
  Pending request = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.issued_this_period;
  ++backend_outstanding_;
  HAECHI_TRACE_DETAIL(obs::ActorKind::kEngine, trace_actor_,
                      obs::EventType::kIoIssue, period_,
                      static_cast<std::int64_t>(request.io_id), token_source,
                      static_cast<std::int64_t>(queue_.size()));
  std::uint32_t slot;
  if (free_in_flight_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  in_flight_[slot].io_id = request.io_id;
  in_flight_[slot].done = std::move(request.done);
  const Status s =
      backend_(request.key, request.is_write, IoDone(this, slot));
  // The outstanding cap above guarantees the backend has room; a failure
  // here is a wiring bug (mismatched capacities), not a runtime condition.
  HAECHI_ASSERT(s.ok());
}

void ClientQosEngine::OnBackendDone(std::uint32_t slot) {
  [[maybe_unused]] const std::uint64_t io_id = in_flight_[slot].io_id;
  CompleteFn done = std::move(in_flight_[slot].done);
  free_in_flight_.push_back(slot);
  --backend_outstanding_;
  ++stats_.completed_this_period;
  ++stats_.completed_total;
  HAECHI_TRACE_DETAIL(obs::ActorKind::kEngine, trace_actor_,
                      obs::EventType::kIoComplete, period_,
                      static_cast<std::int64_t>(io_id),
                      static_cast<std::int64_t>(backend_outstanding_));
  done();
  // A completion frees backend capacity; anything parked for that reason
  // gets another chance.
  TryIssue();
}

}  // namespace haechi::core
