// EngineCore driven through a scripted in-memory port: no simulator, no
// threads, no I/O queue. The test plays the adapter — it sets the clock,
// takes tokens, feeds fetch results back in any order it likes — and the
// fake port records every fetch, report and trace event, so each engine
// rule is checked against exact numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "core/engine_core.hpp"
#include "core/wire.hpp"

namespace haechi::core {
namespace {

using obs::EventType;

struct Event {
  EventType type;
  std::uint32_t period;
  std::int64_t a;
  std::int64_t b;
  std::int64_t c;
};

class ScriptedEngine final : public EnginePort, public EngineCore {
 public:
  explicit ScriptedEngine(const QosConfig& config)
      : EngineCore(static_cast<EnginePort&>(*this), MakeClientId(7), config) {}

  using EngineCore::Decay;
  using EngineCore::FaaRetryDue;
  using EngineCore::Fetch;
  using EngineCore::FetchDue;
  using EngineCore::FetchOutcome;
  using EngineCore::OnCompleted;
  using EngineCore::OnFetchFailed;
  using EngineCore::OnFetchResult;
  using EngineCore::PeriodStart;
  using EngineCore::PoolRetryDue;
  using EngineCore::ReportRequest;
  using EngineCore::ReportTick;
  using EngineCore::Stop;
  using EngineCore::TakeTokens;
  using EngineCore::TickDegraded;

  void Start(std::uint32_t period, std::int64_t reservation,
             std::int64_t limit = 0) {
    PeriodStartMsg msg;
    msg.period = period;
    msg.reservation_tokens = reservation;
    msg.limit = limit;
    PeriodStart(msg);
  }

  [[nodiscard]] std::vector<Event> Events(EventType type) const {
    std::vector<Event> out;
    std::copy_if(events.begin(), events.end(), std::back_inserter(out),
                 [type](const Event& e) { return e.type == type; });
    return out;
  }

  // --- EnginePort ---------------------------------------------------------

  [[nodiscard]] SimTime Now() const override { return now; }
  Status PostFetch(std::int64_t delta) override {
    if (fail_posts) return ErrUnavailable("scripted post failure");
    fetches.push_back(delta);
    return Status::Ok();
  }
  Status PostReport(std::uint64_t packed) override {
    reports.push_back(packed);
    return Status::Ok();
  }
  std::int64_t ShedQueued(std::size_t keep) override {
    const std::int64_t shed =
        queued > keep ? static_cast<std::int64_t>(queued - keep) : 0;
    queued -= static_cast<std::size_t>(shed);
    return shed;
  }
  void Emit(EventType type, std::uint32_t period, std::int64_t a,
            std::int64_t b, std::int64_t c) override {
    events.push_back({type, period, a, b, c});
  }

  SimTime now = 0;
  bool fail_posts = false;
  std::size_t queued = 0;  // the adapter's request queue, by count
  std::vector<std::int64_t> fetches;
  std::vector<std::uint64_t> reports;
  std::vector<Event> events;
};

QosConfig TestConfig() {
  QosConfig config;
  config.period = Millis(100);
  config.token_tick = kMillisecond;
  config.token_batch = 10;
  config.faa_end_guard = Millis(2);
  config.pool_retry_interval = kMillisecond;
  config.faa_retry_backoff = kMillisecond;
  config.faa_retry_backoff_max = Millis(8);
  config.degraded_grace_permille = 1500;
  config.degraded_max_periods = 3;
  config.recovery_backlog_periods = 1;
  return config;
}

TEST(EngineCore, GrantsReservationThenPoolWithinTheLimit) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/3, /*limit=*/6);
  auto take = engine.TakeTokens(2);
  EXPECT_EQ(take.tokens, 2);
  EXPECT_EQ(take.from_reservation, 2);
  take = engine.TakeTokens(5);  // one reservation token left, pool dry
  EXPECT_EQ(take.tokens, 1);
  EXPECT_EQ(take.from_reservation, 1);
  take = engine.TakeTokens(5);
  EXPECT_EQ(take.tokens, 0);
  EXPECT_TRUE(take.dry);
  ASSERT_TRUE(engine.FetchDue(engine.now));
  EXPECT_EQ(engine.Fetch(), 0);
  EXPECT_FALSE(engine.FetchDue(engine.now));  // one fetch in flight at a time
  EXPECT_EQ(engine.OnFetchResult(100, 0, true),
            ScriptedEngine::FetchOutcome::kAcquired);
  EXPECT_EQ(engine.PoolTokens(), 10);
  take = engine.TakeTokens(5);  // the limit leaves room for three
  EXPECT_EQ(take.tokens, 3);
  EXPECT_EQ(take.from_reservation, 0);
  take = engine.TakeTokens(1);
  EXPECT_EQ(take.tokens, 0);
  EXPECT_FALSE(take.dry);
  EXPECT_EQ(engine.stats().limit_throttle_events, 1u);
  EXPECT_EQ(engine.stats().tokens_from_reservation, 3);
  EXPECT_EQ(engine.stats().tokens_from_pool, 3);
  EXPECT_EQ(engine.stats().issued_this_period, 6);
}

TEST(EngineCore, PostedDeltaIsTokenBatchTimesFetchBatch) {
  QosConfig config = TestConfig();
  config.fetch_batch = 4;
  ScriptedEngine engine(config);
  engine.Start(1, /*reservation=*/0);
  ASSERT_TRUE(engine.TakeTokens(1).dry);
  engine.Fetch(/*tag=*/2);
  ASSERT_EQ(engine.fetches, std::vector<std::int64_t>{40});
  const auto posts = engine.Events(EventType::kTokenFetch);
  ASSERT_EQ(posts.size(), 1u);
  EXPECT_EQ(posts[0].a, 40);
  EXPECT_EQ(posts[0].b, 2);
  // The acquisition is clamped to the posted delta, and the done event
  // carries that delta in c.
  engine.OnFetchResult(100, 2, true);
  EXPECT_EQ(engine.PoolTokens(), 40);
  const auto done = engine.Events(EventType::kTokenFetchDone);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].a, 100);
  EXPECT_EQ(done[0].b, 40);
  EXPECT_EQ(done[0].c, 40);
}

TEST(EngineCore, DecaysTowardXAndSurrendersTheSurplus) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/100);  // X falls by 1 per 1 ms tick
  engine.Decay();
  auto decays = engine.Events(EventType::kTokenDecay);
  ASSERT_EQ(decays.size(), 1u);
  EXPECT_EQ(decays[0].a, 1);   // surrendered
  EXPECT_EQ(decays[0].b, 99);  // new bound X
  EXPECT_EQ(engine.ReservationTokens(), 99);
  // Demand consumed tokens below X: nothing more decays until X catches up.
  engine.TakeTokens(50);
  for (int i = 0; i < 50; ++i) engine.Decay();  // X = 49
  EXPECT_EQ(engine.Events(EventType::kTokenDecay).size(), 1u);
  EXPECT_EQ(engine.ReservationTokens(), 49);
  engine.Decay();  // X = 48
  decays = engine.Events(EventType::kTokenDecay);
  ASSERT_EQ(decays.size(), 2u);
  EXPECT_EQ(decays[1].a, 1);
  EXPECT_EQ(decays[1].b, 48);
  EXPECT_EQ(engine.ReservationTokens(), 48);
}

TEST(EngineCore, EntersDegradedAfterGraceAndCapsSyntheticPeriods) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/10);
  engine.TakeTokens(10);
  engine.now = Millis(149);
  EXPECT_FALSE(engine.TickDegraded());
  EXPECT_FALSE(engine.Degraded());
  engine.now = Millis(150);  // the 1.5-period grace window
  EXPECT_TRUE(engine.TickDegraded());
  EXPECT_TRUE(engine.Degraded());
  EXPECT_EQ(engine.ReservationTokens(), 10);  // the last split, re-armed
  const auto enter = engine.Events(EventType::kDegradedEnter);
  ASSERT_EQ(enter.size(), 1u);
  EXPECT_EQ(enter[0].a, 10);
  EXPECT_EQ(enter[0].b, Millis(150));
  // Synthetic boundaries follow the real cadence, at most
  // degraded_max_periods of them, without advancing the period index.
  engine.now = Millis(199);
  EXPECT_FALSE(engine.TickDegraded());
  engine.now = Millis(200);
  EXPECT_TRUE(engine.TickDegraded());
  engine.now = Millis(300);
  EXPECT_TRUE(engine.TickDegraded());
  engine.now = Millis(400);
  EXPECT_FALSE(engine.TickDegraded());
  EXPECT_EQ(engine.stats().degraded_entries, 1u);
  EXPECT_EQ(engine.stats().degraded_periods, 3u);
  EXPECT_EQ(engine.Events(EventType::kDegradedPeriod).size(), 3u);
  EXPECT_EQ(engine.CurrentPeriod(), 1u);
}

TEST(EngineCore, ResyncDiscountsInFlightAndShedsToTheBound) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/10);
  engine.now = Millis(150);
  ASSERT_TRUE(engine.TickDegraded());
  engine.TakeTokens(4);  // issued against the synthetic split, in flight
  engine.queued = 25;
  engine.now = Millis(160);
  engine.Start(2, /*reservation=*/10);
  EXPECT_FALSE(engine.Degraded());
  // One period's worth of the last provisioned reservation survives.
  EXPECT_EQ(engine.queued, 10u);
  EXPECT_EQ(engine.stats().shed_on_recovery, 15u);
  const auto exits = engine.Events(EventType::kDegradedExit);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0].a, 1);   // periods spent degraded
  EXPECT_EQ(exits[0].b, 15);  // shed
  // The fresh grant replaces the synthetic split instead of stacking.
  EXPECT_EQ(engine.ReservationTokens(), 10 - 4);
  engine.Decay();
  EXPECT_EQ(engine.ReservationTokens(), 5);  // X restarts from 6
}

TEST(EngineCore, NoFetchWhileDegradedAndDegradedResultsAreDiscarded) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/0);
  ASSERT_TRUE(engine.TakeTokens(1).dry);
  engine.Fetch();
  engine.now = Millis(150);
  ASSERT_TRUE(engine.TickDegraded());
  EXPECT_EQ(engine.OnFetchResult(50, 0, true),
            ScriptedEngine::FetchOutcome::kDiscarded);
  EXPECT_EQ(engine.PoolTokens(), 0);
  const auto discards = engine.Events(EventType::kTokenDiscard);
  ASSERT_EQ(discards.size(), 1u);
  EXPECT_EQ(discards[0].a, 50);
  EXPECT_EQ(discards[0].c, 10);  // the posted delta
  EXPECT_TRUE(engine.TakeTokens(1).dry);
  EXPECT_FALSE(engine.FetchDue(engine.now));
  EXPECT_EQ(engine.fetches.size(), 1u);
}

TEST(EngineCore, StalePeriodResultIsDiscardedAgainstItsPeriod) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/0);
  engine.Fetch();
  engine.now = Millis(100);
  engine.Start(2, /*reservation=*/0);
  EXPECT_EQ(engine.OnFetchResult(40, 0, true),
            ScriptedEngine::FetchOutcome::kDiscarded);
  EXPECT_EQ(engine.PoolTokens(), 0);
  const auto discards = engine.Events(EventType::kTokenDiscard);
  ASSERT_EQ(discards.size(), 1u);
  EXPECT_EQ(discards[0].period, 1u);
  EXPECT_EQ(discards[0].a, 40);
  EXPECT_EQ(discards[0].c, 10);
  // The current period's pool is fair game.
  EXPECT_TRUE(engine.FetchDue(engine.now));
}

TEST(EngineCore, EmptyPoolArmsTheRetryDeadlineAndTheEndGuardHolds) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/0);
  engine.Fetch();
  engine.now = Millis(10);
  EXPECT_EQ(engine.OnFetchResult(0, 0, /*waiting=*/true),
            ScriptedEngine::FetchOutcome::kPoolEmpty);
  EXPECT_EQ(engine.Events(EventType::kPoolEmpty).size(), 1u);
  engine.now = Millis(11);  // the deadline itself still waits for the wake
  EXPECT_FALSE(engine.FetchDue(engine.now));
  EXPECT_TRUE(engine.PoolRetryDue(1));
  EXPECT_TRUE(engine.FetchDue(engine.now));
  engine.now = Millis(98);  // within faa_end_guard of the period end
  EXPECT_FALSE(engine.FetchDue(engine.now));
  // With nothing waiting, an empty result arms no retry.
  engine.now = Millis(20);
  engine.Fetch();
  EXPECT_EQ(engine.OnFetchResult(0, 0, /*waiting=*/false),
            ScriptedEngine::FetchOutcome::kAcquired);
  EXPECT_TRUE(engine.FetchDue(engine.now));
}

TEST(EngineCore, ADryProbeFollowedByAHitLeavesNoRetryPending) {
  // A sharded transport probes the next shard when one comes up empty:
  // tokens found there must not leave the first probe's T4 wait behind.
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/0);
  engine.Fetch(/*tag=*/0);
  EXPECT_EQ(engine.OnFetchResult(0, 0, true),
            ScriptedEngine::FetchOutcome::kPoolEmpty);
  engine.Fetch(/*tag=*/1);
  EXPECT_EQ(engine.OnFetchResult(50, 1, true),
            ScriptedEngine::FetchOutcome::kAcquired);
  EXPECT_EQ(engine.TakeTokens(20).tokens, 10);
  EXPECT_TRUE(engine.FetchDue(engine.now));
}

TEST(EngineCore, FailureBackoffLadderSignalsExhaustionOncePerPeriod) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/0);
  engine.fail_posts = true;
  EXPECT_EQ(engine.Fetch(), Millis(1));
  EXPECT_EQ(engine.Fetch(), 0);  // a retry is already armed: no step
  EXPECT_TRUE(engine.FaaRetryDue(1));
  EXPECT_EQ(engine.Fetch(), Millis(2));
  EXPECT_TRUE(engine.FaaRetryDue(1));
  EXPECT_EQ(engine.Fetch(), Millis(4));
  EXPECT_TRUE(engine.FaaRetryDue(1));
  EXPECT_EQ(engine.Fetch(), Millis(8));
  EXPECT_TRUE(engine.FaaRetryDue(1));
  EXPECT_EQ(engine.Fetch(), Millis(8));  // pinned at the maximum
  EXPECT_EQ(engine.stats().faa_failures, 6u);
  EXPECT_EQ(engine.stats().faa_retries, 4u);
  auto exhausted = engine.Events(EventType::kFaaExhausted);
  ASSERT_EQ(exhausted.size(), 1u);
  EXPECT_EQ(exhausted[0].a, Millis(8));
  // A successful fetch resets the ladder.
  EXPECT_TRUE(engine.FaaRetryDue(1));
  engine.fail_posts = false;
  engine.Fetch();
  engine.OnFetchResult(5, 0, true);
  engine.fail_posts = true;
  EXPECT_EQ(engine.Fetch(), Millis(1));
  EXPECT_TRUE(engine.FaaRetryDue(1));
  EXPECT_EQ(engine.Fetch(), Millis(2));
  // So does the next period, which may signal exhaustion again; a wake-up
  // armed in the old period no longer retries.
  engine.Start(2, /*reservation=*/0);
  EXPECT_FALSE(engine.FaaRetryDue(1));
  SimDuration backoff = 0;
  for (int i = 0; i < 4; ++i) {
    backoff = engine.Fetch();
    engine.FaaRetryDue(2);
  }
  EXPECT_EQ(backoff, Millis(8));
  EXPECT_EQ(engine.Events(EventType::kFaaExhausted).size(), 2u);
  // An error completion of a posted fetch takes the same ladder.
  engine.fail_posts = false;
  engine.Fetch();
  EXPECT_EQ(engine.OnFetchFailed(), Millis(8));
  EXPECT_EQ(engine.Events(EventType::kFaaExhausted).size(), 2u);
}

TEST(EngineCore, ReportsClaimReservationPoolAndOutstanding) {
  ScriptedEngine engine(TestConfig());
  engine.Start(1, /*reservation=*/10);
  engine.TakeTokens(3);
  engine.TakeTokens(7);
  ASSERT_TRUE(engine.TakeTokens(1).dry);
  engine.Fetch();
  engine.OnFetchResult(100, 0, true);
  engine.TakeTokens(2);
  engine.OnCompleted(5);
  // xi = 0, local = 8, outstanding = 12 - 5 = 7.
  ASSERT_TRUE(engine.ReportRequest());
  EXPECT_TRUE(engine.Reporting());
  ASSERT_EQ(engine.reports.size(), 1u);
  EXPECT_EQ(ReportPeriod(engine.reports[0]), 1u);
  EXPECT_EQ(ReportResidual(engine.reports[0]), 0u + 8u + 7u);
  EXPECT_EQ(ReportCompleted(engine.reports[0]), 5u);
  EXPECT_FALSE(engine.ReportRequest());  // duplicates are idempotent
  engine.ReportTick();
  ASSERT_EQ(engine.reports.size(), 2u);
  EXPECT_EQ(ReportSeq(engine.reports[1]),
            static_cast<std::uint8_t>(ReportSeq(engine.reports[0]) + 1));
  const auto writes = engine.Events(EventType::kReportWrite);
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[1].a, 15);
  EXPECT_EQ(writes[1].c, 2);  // report_writes so far
  // A stopped engine stays silent until its next period start.
  engine.Stop();
  EXPECT_FALSE(engine.ReportRequest());
  engine.ReportTick();
  EXPECT_EQ(engine.reports.size(), 2u);
  EXPECT_EQ(engine.Events(EventType::kEngineStop).size(), 1u);
}

}  // namespace
}  // namespace haechi::core
