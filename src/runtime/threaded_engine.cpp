#include "runtime/threaded_engine.hpp"

#include <variant>

namespace haechi::runtime {

namespace {
using obs::ActorKind;
using obs::EventType;
}  // namespace

ThreadedEngine::ThreadedEngine(Clock& clock, obs::Recorder* recorder,
                               ClientId id, const core::QosConfig& config,
                               ThreadedFabric& fabric, std::size_t port,
                               std::size_t slot)
    : core::EngineCore(static_cast<core::EnginePort&>(*this), id, config),
      clock_(clock),
      recorder_(recorder),
      fabric_(fabric),
      port_(port),
      slot_(slot),
      shards_(fabric.shards()),
      home_shard_(slot % fabric.shards()) {
  token_timer_ = std::make_unique<PeriodicTimer>(
      clock_, config.token_tick, [this] { TokenTick(); });
  report_timer_ = std::make_unique<PeriodicTimer>(
      clock_, config.report_interval, [this] { ReportTick(); });
}

ThreadedEngine::~ThreadedEngine() { Stop(); }

void ThreadedEngine::Emit(EventType type, std::uint32_t period,
                          std::int64_t a, std::int64_t b, std::int64_t c) {
  if (recorder_ != nullptr) {
    recorder_->EmitAt(clock_.Now(), ActorKind::kEngine, Raw(id()), type,
                      period, a, b, c);
  }
}

Status ThreadedEngine::PostReport(std::uint64_t packed) {
  // The seqlock write is a handful of stores; keeping it under the engine
  // mutex keeps this thread's slot writes in report order.
  fabric_.PostReportWrite(port_, slot_, packed);
  return Status::Ok();
}

void ThreadedEngine::Deliver(const core::ControlMsg& msg) {
  std::lock_guard lk(mu_);
  if (const auto* start = std::get_if<core::PeriodStartMsg>(&msg)) {
    if (EngineCore::Stopped()) return;  // torn down: workers have exited
    PeriodStart(*start);
    report_timer_->Stop();
    token_timer_->Start();
  } else if (std::holds_alternative<core::ReportRequestMsg>(msg)) {
    if (ReportRequest()) report_timer_->Start();
  } else if (std::holds_alternative<core::OverReserveHintMsg>(msg)) {
    OverReserveHint();
  } else {
    RecoverySync();
  }
}

void ThreadedEngine::Stop() {
  std::lock_guard lk(mu_);
  if (EngineCore::Stopped()) return;
  EngineCore::Stop();
  token_timer_->Stop();
  report_timer_->Stop();
}

void ThreadedEngine::TokenTick() {
  std::lock_guard lk(mu_);
  TickDegraded();
  Decay();
}

void ThreadedEngine::ReportTick() {
  std::lock_guard lk(mu_);
  EngineCore::ReportTick();
}

void ThreadedEngine::FetchPoolRoundLocked(std::unique_lock<std::mutex>& lk) {
  // One batched remote FAA per shard, home shard first — each draws
  // token_batch * fetch_batch tokens, the doorbell-batching cost model on
  // a real NIC. The lock drops around each FAA so the monitor's control
  // deliveries never wait behind the fetch.
  for (std::size_t probe = 0; probe < shards_; ++probe) {
    if (!Started()) return;
    const auto shard = static_cast<std::int64_t>((home_shard_ + probe) %
                                                 shards_);
    Fetch(shard);  // the threaded port never fails a post
    lk.unlock();
    const std::int64_t before = fabric_.PostFetchAdd(
        port_, static_cast<std::size_t>(shard), -FetchDelta());
    lk.lock();
    // A stopped engine is gone for good; the fetched tokens die with it.
    if (EngineCore::Stopped()) return;
    switch (OnFetchResult(before, shard, /*waiting=*/true)) {
      case FetchOutcome::kDiscarded:
        return;
      case FetchOutcome::kAcquired:
        if (probe == 0) {
          ++runtime_stats_.faa_home_hits;
        } else {
          ++runtime_stats_.faa_steals;
        }
        return;
      case FetchOutcome::kPoolEmpty:
        ++runtime_stats_.faa_dry_probes;
        break;
    }
  }
}

ThreadedEngine::Batch ThreadedEngine::TryAcquireBatch(
    std::uint32_t p, std::int64_t max_tokens) {
  std::unique_lock lk(mu_);
  for (;;) {
    if (EngineCore::Stopped()) return {Grant::kStopped, 0};
    if (!Started() || EngineCore::CurrentPeriod() != p) {
      return {Grant::kPeriodOver, 0};
    }
    const Take take = TakeTokens(max_tokens);
    if (take.tokens > 0) {
      if (recorder_ != nullptr && recorder_->detail()) {
        // Span triplet, threads flavour: grant and issue are the same
        // instant (workers pull tokens; there is no engine-side request
        // queue), so kIoQueued and kIoIssue share a timestamp. Sim and
        // threads traces then agree on stage *structure* while the
        // client-side stages are ~0 here and the real durations live in
        // nic_service.
        const SimTime now = clock_.Now();
        for (std::int64_t k = 0; k < take.tokens; ++k) {
          const std::uint64_t io_id = next_io_id_++;
          const std::int64_t source = k < take.from_reservation ? 0 : 1;
          recorder_->EmitAt(now, ActorKind::kEngine, Raw(id()),
                            EventType::kIoQueued, p,
                            static_cast<std::int64_t>(io_id), 0);
          recorder_->EmitAt(now, ActorKind::kEngine, Raw(id()),
                            EventType::kIoIssue, p,
                            static_cast<std::int64_t>(io_id), source, 0);
          ++runtime_stats_.span_ios;
        }
      }
      return {Grant::kToken, take.tokens, take.from_reservation};
    }
    if (!take.dry || !FetchDue(clock_.Now())) return {Grant::kNotReady, 0};
    FetchPoolRoundLocked(lk);
    // Loop: re-evaluate with whatever the round brought home (it may also
    // have observed a stop or a period roll).
  }
}

void ThreadedEngine::OnIoCompleted(std::int64_t n) {
  std::lock_guard lk(mu_);
  std::int64_t out = OnCompleted(n) + n;
  if (recorder_ == nullptr || !recorder_->detail()) return;
  // Close the n oldest spans. Every grant took the next id and grants
  // complete FIFO per engine, so the `out` outstanding I/Os hold the ids
  // just below next_io_id_.
  const SimTime now = clock_.Now();
  for (std::int64_t k = 0; k < n; ++k, --out) {
    recorder_->EmitAt(now, ActorKind::kEngine, Raw(id()),
                      EventType::kIoComplete, EngineCore::CurrentPeriod(),
                      static_cast<std::int64_t>(next_io_id_) - out, out - 1);
  }
}

bool ThreadedEngine::Stopped() const {
  std::lock_guard lk(mu_);
  return EngineCore::Stopped();
}

ThreadedEngine::Stats ThreadedEngine::StatsSnapshot() const {
  std::lock_guard lk(mu_);
  return stats();
}

ThreadedEngine::RuntimeStats ThreadedEngine::RuntimeStatsSnapshot() const {
  std::lock_guard lk(mu_);
  return runtime_stats_;
}

std::uint32_t ThreadedEngine::CurrentPeriod() const {
  std::lock_guard lk(mu_);
  return EngineCore::CurrentPeriod();
}

}  // namespace haechi::runtime
