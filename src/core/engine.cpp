#include "core/engine.hpp"

#include <cstring>
#include <string>

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
    : EngineCore(static_cast<EnginePort&>(*this), id, config),
      sim_(sim),
      trace_actor_(Raw(id)),
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
  node.pd().Register(std::span<std::byte>(report_buffer_),
                     rdma::access::kLocalRead | rdma::access::kLocalWrite);
  qos_qp_.send_cq().SetNotify(
      [this](const rdma::WorkCompletion& wc) { HandleQosCompletion(wc); });

  token_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config.token_tick, [this] { TokenTick(); });
  report_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config.report_interval, [this] { ReportTick(); });
}

Status ClientQosEngine::Submit(std::uint64_t key, CompleteFn done,
                               bool is_write) {
  HAECHI_EXPECTS(done != nullptr);
  if (backend_ == nullptr) {
    return ErrFailedPrecondition("no I/O backend configured");
  }
  if (queue_.size() >= config().max_engine_queue) {
    ++mutable_stats().rejected_submits;
    return ErrResourceExhausted("engine queue full");
  }
  const std::uint64_t io_id = next_io_id_++;
  queue_.push_back(Pending{key, is_write, io_id, std::move(done)});
  HAECHI_TRACE_DETAIL(obs::ActorKind::kEngine, trace_actor_,
                      obs::EventType::kIoQueued, CurrentPeriod(),
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
      PeriodStart(msg);
      report_timer_->Stop();
      token_timer_->Start();
      TryIssue();
      break;
    }
    case CtrlType::kReportRequest:
      if (ReportRequest()) report_timer_->Start();
      break;
    case CtrlType::kOverReserveHint:
      OverReserveHint();
      break;
    case CtrlType::kRecoverySync:
      RecoverySync();
      break;
  }
  const Status s =
      ctrl_qp_.PostRecv(wc.wr_id, std::span<std::byte>(buffer));
  HAECHI_ASSERT(s.ok());
}

void ClientQosEngine::Stop() {
  EngineCore::Stop();
  token_timer_->Stop();
  report_timer_->Stop();
  queue_.clear();
}

void ClientQosEngine::TokenTick() {
  // A synthetic degraded boundary re-arms the reservation split; issue
  // against it before this tick's decay step, as a real boundary would.
  if (TickDegraded()) TryIssue();
  Decay();
}

std::int64_t ClientQosEngine::ShedQueued(std::size_t keep) {
  if (queue_.size() <= keep) return 0;
  const auto shed = static_cast<std::ptrdiff_t>(queue_.size() - keep);
  queue_.erase(queue_.begin(), queue_.begin() + shed);
  return shed;
}

void ClientQosEngine::Emit([[maybe_unused]] obs::EventType type,
                           [[maybe_unused]] std::uint32_t period,
                           [[maybe_unused]] std::int64_t a,
                           [[maybe_unused]] std::int64_t b,
                           [[maybe_unused]] std::int64_t c) {
  HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, trace_actor_, type, period, a,
                     b, c);
}

Status ClientQosEngine::PostReport(std::uint64_t packed) {
  std::memcpy(report_buffer_.data(), &packed, sizeof(packed));
  return qos_qp_.PostWrite(kWrTagReport | next_wr_id_++,
                           std::span<const std::byte>(report_buffer_),
                           wiring_.report_slot_addr, wiring_.report_slot_rkey);
}

Status ClientQosEngine::PostFetch(std::int64_t delta) {
  return qos_qp_.PostFetchAdd(kWrTagFaa | next_wr_id_++,
                              wiring_.global_pool_addr,
                              wiring_.global_pool_rkey, -delta);
}

void ClientQosEngine::ArmFaaRetry(SimDuration backoff) {
  if (backoff == 0) return;  // a retry wake-up is already armed
  sim_.ScheduleAfter(backoff, [this, at_period = CurrentPeriod()] {
    if (FaaRetryDue(at_period)) TryIssue();
  });
}

void ClientQosEngine::HandleQosCompletion(const rdma::WorkCompletion& wc) {
  if ((wc.wr_id & kWrTagReport) != 0) {  // report write acks
    if (!wc.ok()) ++mutable_stats().report_failures;
    return;
  }
  if ((wc.wr_id & kWrTagFaa) == 0) return;
  if (!wc.ok()) {
    HAECHI_LOG_WARN("engine %u: FAA failed: %s", Raw(id()),
                    std::string(rdma::ToString(wc.status)).c_str());
    ArmFaaRetry(OnFetchFailed());
    return;
  }
  const FetchOutcome outcome =
      OnFetchResult(static_cast<std::int64_t>(wc.atomic_result), 0,
                    !queue_.empty());
  if (outcome == FetchOutcome::kPoolEmpty) {
    sim_.ScheduleAfter(config().pool_retry_interval,
                       [this, at_period = CurrentPeriod()] {
                         if (PoolRetryDue(at_period)) TryIssue();
                       });
    return;
  }
  TryIssue();
}

void ClientQosEngine::TryIssue() {
  if (!Started()) return;
  while (!queue_.empty()) {
    const Take take = TakeTokens(1);
    if (take.tokens == 0) {
      if (take.dry && FetchDue(sim_.Now())) ArmFaaRetry(Fetch());
      return;
    }
    IssueOne(/*token_source=*/take.from_reservation > 0 ? 0 : 1);
  }
}

void ClientQosEngine::IssueOne(std::int64_t token_source) {
  Pending request = std::move(queue_.front());
  queue_.pop_front();
  HAECHI_TRACE_DETAIL(obs::ActorKind::kEngine, trace_actor_,
                      obs::EventType::kIoIssue, CurrentPeriod(),
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
  // The outstanding cap guarantees the backend has room; a failure here is
  // a wiring bug (mismatched capacities), not a runtime condition.
  HAECHI_ASSERT(s.ok());
}

void ClientQosEngine::OnBackendDone(std::uint32_t slot) {
  [[maybe_unused]] const std::uint64_t io_id = in_flight_[slot].io_id;
  CompleteFn done = std::move(in_flight_[slot].done);
  free_in_flight_.push_back(slot);
  [[maybe_unused]] const std::int64_t outstanding = OnCompleted(1);
  HAECHI_TRACE_DETAIL(obs::ActorKind::kEngine, trace_actor_,
                      obs::EventType::kIoComplete, CurrentPeriod(),
                      static_cast<std::int64_t>(io_id), outstanding);
  done();
  // A completion frees backend capacity; anything parked for that reason
  // gets another chance.
  TryIssue();
}

}  // namespace haechi::core
