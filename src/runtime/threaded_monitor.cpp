#include "runtime/threaded_monitor.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace haechi::runtime {

ThreadedMonitor::ThreadedMonitor(Clock& clock, obs::Recorder* recorder,
                                 const core::QosConfig& config,
                                 ThreadedFabric& fabric,
                                 double profiled_global_iops,
                                 double profiled_local_iops)
    : MonitorCore(*this, config, profiled_global_iops, profiled_local_iops),
      clock_(clock),
      recorder_(recorder),
      region_(fabric.region()),
      shard_last_pool_(region_.shards(), 0) {
  period_timer_ = std::make_unique<PeriodicTimer>(clock_, config.period, [this] {
    const auto lk = Lock();
    if (running_) StartPeriod();
  });
  check_timer_ =
      std::make_unique<PeriodicTimer>(clock_, config.check_interval, [this] {
        const auto lk = Lock();
        if (!running_) return;
        CheckTick();
        // With the shard values freshly witnessed, even out lopsided shards
        // so a client whose home shard ran dry is not starved while a
        // neighbour hoards (AdapTBF-style periodic redistribution).
        if (region_.shards() > 1) RebalanceLocked();
      });
}

ThreadedMonitor::~ThreadedMonitor() { Stop(); }

std::unique_lock<std::mutex> ThreadedMonitor::Lock() {
  std::unique_lock lk(mu_);
  now_ = clock_.Now();
  return lk;
}

void ThreadedMonitor::Emit(obs::ActorKind kind, obs::EventType type,
                           std::uint32_t period, std::int64_t a,
                           std::int64_t b, std::int64_t c) {
  // Stamped with the latched `now_` the payload was computed from.
  if (recorder_ != nullptr) {
    recorder_->EmitAt(now_, kind, 0, type, period, a, b, c);
  }
}

void ThreadedMonitor::Deliver(Channel channel, ClientId /*client*/,
                              const core::ControlMsg& msg) {
  static_cast<ThreadedEngine*>(channel)->Deliver(msg);
}

core::MonitorPort::PoolTouch ThreadedMonitor::SamplePool() {
  const std::size_t nshards = region_.shards();
  PoolTouch seen;
  for (std::size_t s = 0; s < nshards; ++s) {
    const std::int64_t raw = region_.LoadPool(s);
    seen.raw += raw;
    seen.granted += shard_last_pool_[s] - raw;
    shard_last_pool_[s] = raw;
    // Per-shard occupancy telemetry for the sharded runtime (the watchdog's
    // status line and the span profiler's shard view). Single-shard runs
    // stay bit-identical to sim traces, which have no kShardSample.
    if (nshards > 1) {
      Emit(obs::ActorKind::kMonitor, obs::EventType::kShardSample,
           CurrentPeriod(), static_cast<std::int64_t>(s), raw, 0);
      ++runtime_stats_.shard_samples;
    }
  }
  return seen;
}

core::MonitorPort::PoolTouch ThreadedMonitor::ExchangePool(std::int64_t value) {
  // One exchange per shard. The exchanges are not simultaneous, but
  // clients only ever decrease the words between them, so per-shard
  // telescoping keeps `granted` exact on the sum.
  PoolTouch seen;
  for (std::size_t s = 0; s < region_.shards(); ++s) {
    const std::int64_t share = ShardShare(value, s);
    const std::int64_t raw = region_.ExchangePool(s, share);
    seen.raw += raw;
    seen.granted += shard_last_pool_[s] - raw;
    shard_last_pool_[s] = share;
  }
  return seen;
}

core::MonitorPort::PoolTouch ThreadedMonitor::InstallPool(std::int64_t value) {
  // Every CAS failure means client FAAs moved that word; retry from the
  // freshly-witnessed value, so the final successful CAS gives the exact
  // pre-conversion word and no grant is ever lost to an overwrite.
  PoolTouch seen;
  for (std::size_t s = 0; s < region_.shards(); ++s) {
    const std::int64_t share = ShardShare(value, s);
    std::int64_t expected = region_.LoadPool(s);
    while (!region_.CasPool(s, expected, share)) {
      ++runtime_stats_.convert_cas_retries;
    }
    seen.raw += expected;
    seen.granted += shard_last_pool_[s] - expected;
    shard_last_pool_[s] = share;
  }
  return seen;
}

std::int64_t ThreadedMonitor::ShardShare(std::int64_t total,
                                         std::size_t shard) const {
  const auto n = static_cast<std::int64_t>(region_.shards());
  if (total <= 0) return 0;
  return total / n + (static_cast<std::int64_t>(shard) < total % n ? 1 : 0);
}

void ThreadedMonitor::RebalanceLocked() {
  // Move half the spread from the fullest shard to the emptiest one, one
  // move per check tick, when the spread exceeds two effective fetch
  // batches — cheap, incremental, and a no-op in steady state. The donor
  // side is a CAS (witnessing the live word so concurrent grants stay
  // ledger-exact, clamping the move to what is actually there); the
  // receiver side is a FAA whose return value witnesses that word. The
  // move itself is sum-neutral: only the witnessed client grants change
  // `granted`, and `minted` is untouched.
  if (CurrentPeriod() == 0) return;
  const std::size_t nshards = region_.shards();
  std::size_t donor = 0;
  std::size_t receiver = 0;
  for (std::size_t s = 1; s < nshards; ++s) {
    if (shard_last_pool_[s] > shard_last_pool_[donor]) donor = s;
    if (shard_last_pool_[s] < shard_last_pool_[receiver]) receiver = s;
  }
  const std::int64_t batch =
      config().token_batch * std::max<std::int64_t>(config().fetch_batch, 1);
  const std::int64_t spread =
      shard_last_pool_[donor] - shard_last_pool_[receiver];
  if (donor == receiver || spread <= 2 * batch) return;

  std::int64_t move = spread / 2;
  std::int64_t expected = region_.LoadPool(donor);
  for (;;) {
    move = std::min(move, std::max<std::int64_t>(expected, 0));
    if (move <= 0) {
      // Clients drained the donor under us; fold the witnessed grants in
      // and try again next tick.
      RecordRebalance(shard_last_pool_[donor] - expected, 0);
      shard_last_pool_[donor] = expected;
      return;
    }
    if (region_.CasPool(donor, expected, expected - move)) break;
  }
  std::int64_t granted = shard_last_pool_[donor] - expected;
  shard_last_pool_[donor] = expected - move;
  const std::int64_t receiver_before = region_.FetchAddPool(receiver, move);
  granted += shard_last_pool_[receiver] - receiver_before;
  shard_last_pool_[receiver] = receiver_before + move;
  RecordRebalance(granted, move);
  std::int64_t tracked_sum = 0;
  for (const std::int64_t v : shard_last_pool_) tracked_sum += v;
  Emit(obs::ActorKind::kMonitor, obs::EventType::kPoolRebalance,
       CurrentPeriod(), tracked_sum, move,
       static_cast<std::int64_t>((donor << 8) | receiver));
}

Result<ThreadedWiring> ThreadedMonitor::AdmitClient(ClientId client,
                                                    std::int64_t reservation,
                                                    std::int64_t limit) {
  const auto lk = Lock();
  auto slot = MonitorCore::AdmitClient(client, reservation, limit, nullptr);
  if (!slot.ok()) return slot.status();
  return ThreadedWiring{slot.value()};
}

Status ThreadedMonitor::BindEngine(ClientId client, ThreadedEngine* engine) {
  const auto lk = Lock();
  return BindChannel(client, engine);
}

void ThreadedMonitor::SetController(core::control::QosController* controller,
                                    std::function<void(ClientId)> readmit) {
  const auto lk = Lock();
  MonitorCore::SetController(controller, std::move(readmit));
}

void ThreadedMonitor::SetPeriodHook(PeriodHook fn) {
  const auto lk = Lock();
  MonitorCore::SetPeriodHook(std::move(fn));
}

void ThreadedMonitor::Start() {
  {
    const auto lk = Lock();
    HAECHI_EXPECTS(!running_);
    running_ = true;
    StartPeriod();
  }
  period_timer_->Start();
  check_timer_->Start();
}

void ThreadedMonitor::Stop() {
  {
    const auto lk = Lock();
    running_ = false;
  }
  period_timer_->Stop();
  check_timer_->Stop();
}

void ThreadedMonitor::Crash() {
  {
    const auto lk = Lock();
    if (!running_ || !MonitorCore::Crash()) return;
    running_ = false;
  }
  // Disarm outside the lock, matching Stop(); an already-launched tick
  // re-checks running_ under the lock and becomes a no-op.
  period_timer_->Stop();
  check_timer_->Stop();
}

void ThreadedMonitor::Recover() {
  {
    const auto lk = Lock();
    HAECHI_EXPECTS(Crashed());
    running_ = true;
    MonitorCore::Recover();
  }
  period_timer_->Start();
  check_timer_->Start();
}

ThreadedMonitor::Stats ThreadedMonitor::StatsSnapshot() const {
  std::lock_guard lk(mu_);
  return stats();
}

ThreadedMonitor::RuntimeStats ThreadedMonitor::RuntimeStatsSnapshot() const {
  std::lock_guard lk(mu_);
  return runtime_stats_;
}

std::vector<ThreadedMonitor::PeriodLedger> ThreadedMonitor::LedgerSnapshot()
    const {
  std::lock_guard lk(mu_);
  return ledger();
}

}  // namespace haechi::runtime
