// Batched-fetch accounting properties of the threaded runtime, swept over
// the fetch-batch knob on a sharded pool, with the report lease armed and
// one scripted client crash:
//
//   * an engine can never hold more pool tokens than its FAAs posted:
//     tokens_from_pool <= (token_batch * fetch_batch) * faa_ops;
//   * every completed I/O consumed a token it owned:
//     completed_total <= tokens_from_reservation + tokens_from_pool;
//   * the monitor's per-period conservation identity stays EXACT on every
//     closed period — batching and sharding change how tokens move, never
//     how many exist;
//   * the crashed client's residual is reclaimed by the lease (work
//     conservation: unused remainder is converted, not leaked), and the
//     full A1-A9 audit stays green on the faulted trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/control/controller.hpp"
#include "harness/experiment.hpp"
#include "harness/runtime_experiment.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

harness::ExperimentConfig PropertyConfig(std::int64_t fetch_batch,
                                         std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.qos.period = Millis(100);
  config.qos.token_tick = Millis(2);
  config.qos.report_interval = Millis(2);
  config.qos.check_interval = Millis(2);
  config.qos.token_batch = 10;
  config.qos.fetch_batch = fetch_batch;
  config.qos.pool_shards = 4;
  config.qos.pool_retry_interval = Millis(2);
  config.qos.faa_end_guard = Millis(20);
  // Lease armed: 6 check intervals (12 ms) of slot silence declares a
  // client dead and converts its residual claims.
  config.qos.report_lease_intervals = 6;
  config.profiled_global_iops = 20000;
  config.profiled_local_iops = 8000;
  config.records = 4096;
  config.warmup = Millis(200);
  config.measure_periods = 5;
  config.seed = seed;
  config.trace.enabled = true;
  config.trace.ring_capacity = 1u << 16;

  // Client 1's pool draw (demand - reservation = 145) is deliberately not
  // a multiple of any effective batch in the sweep (10, 40, 80), so the
  // crashed client always holds an unconsumed fetched-chain remainder —
  // exactly what the lease must reclaim.
  const std::int64_t reservations[] = {500, 400, 200, 100};
  const std::int64_t demands[] = {600, 545, 250, 150};
  for (std::size_t i = 0; i < 4; ++i) {
    harness::ClientSpec spec;
    spec.reservation = reservations[i];
    spec.demand = demands[i];
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }

  // Client 1 crashes mid-measurement and never restarts; its reservation
  // must flow back through the lease.
  harness::ExperimentConfig::ClientFault fault;
  fault.client = 1;
  fault.crash_at = config.warmup + 2 * config.qos.period +
                   config.qos.period / 2;
  fault.restart_at = kSimTimeMax;
  config.client_faults.push_back(fault);
  return config;
}

TEST(RuntimePropertyTest, BatchedFetchNeverLeaksTokensAcrossShardsAndCrash) {
  const std::int64_t fetch_batches[] = {1, 4, 8};
  std::int64_t reclaimed_across_sweep = 0;
  // The threaded runtime runs in real time, so whether the crashed client
  // dies holding a fetched-chain remainder depends on worker scheduling.
  // Every attempt checks the hard invariants (FAA bound, ledger, audit);
  // the sweep retries with fresh seeds until some arm observes a nonzero
  // residual, which makes the liveness assertion below robust to an
  // occasional zero-residual crash point.
  for (std::uint64_t attempt = 0;
       attempt < 4 && reclaimed_across_sweep == 0; ++attempt) {
  std::uint64_t seed = 7 + attempt * 101;
  for (const std::int64_t fetch_batch : fetch_batches) {
    SCOPED_TRACE("fetch_batch " + std::to_string(fetch_batch));
    const harness::ExperimentConfig config =
        PropertyConfig(fetch_batch, seed++);
    const std::int64_t effective_batch =
        config.qos.token_batch * fetch_batch;

    harness::ThreadedExperiment experiment(config);
    const harness::ThreadedExperimentResult result = experiment.Run();

    // Per-engine FAA bound and token-backed completion accounting.
    ASSERT_EQ(result.engine_stats.size(), config.clients.size());
    for (std::size_t i = 0; i < result.engine_stats.size(); ++i) {
      const auto& stats = result.engine_stats[i];
      EXPECT_LE(stats.tokens_from_pool,
                effective_batch * static_cast<std::int64_t>(stats.faa_ops))
          << "client " << i << " acquired more pool tokens than its FAAs "
          << "posted";
      EXPECT_LE(stats.completed_total,
                stats.tokens_from_reservation + stats.tokens_from_pool)
          << "client " << i << " completed I/Os without tokens";
    }

    // Exact conservation on every closed period, crash or not.
    for (const auto& ledger : result.ledger) {
      if (ledger.period >= result.monitor_stats.periods) continue;
      EXPECT_EQ(ledger.initial_pool + ledger.minted - ledger.granted,
                ledger.end_pool)
          << "ledger period " << ledger.period;
    }

    // The lease must have fired for the crashed client. The residual it
    // reclaims is the unconsumed tail of the last fetched chain; with
    // fetch_batch == 1 the worker drains every 10-token fetch in one
    // grant, so only the batched arms reliably leave a remainder — the
    // sweep-level assertion below pins that down.
    EXPECT_GE(result.monitor_stats.lease_expirations, 1u);
    EXPECT_GE(result.monitor_stats.reclaimed_tokens, 0);
    reclaimed_across_sweep += result.monitor_stats.reclaimed_tokens;

    // Full audit on the faulted trace: A5 switches to its banded form
    // around the crash, A9 excludes the crash window, everything else is
    // unchanged.
    ASSERT_NE(experiment.recorder(), nullptr);
    const obs::AuditReport report =
        obs::AuditTrace(experiment.recorder()->Merged());
    for (const auto& v : report.violations) {
      ADD_FAILURE() << "fetch_batch " << fetch_batch << ": " << v.check
                    << ": " << v.detail;
    }
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report.guarantee_checks, 0u);
  }
  }
  // The crashed client's pool draws are not multiples of the batched
  // effective batches (40, 80), so some arm of some attempt must reclaim
  // a fetched-chain remainder through the lease.
  EXPECT_GT(reclaimed_across_sweep, 0)
      << "no arm of the fetch-batch sweep reclaimed residual tokens";
}

#if HAECHI_WATCHDOG_ENABLED

// Randomized controller-plan property: whatever alert stream hits the
// controller, every boundary plan it emits must
//   * keep resize deltas sum-neutral (the A10 identity at the source),
//   * state each resize as value == reservation + delta with value >= 0
//     and value <= limit (when limited),
//   * never grow a non-burst client past its spec reservation,
//   * keep eta scaling inside [125, 1000] milli,
// and a twin controller fed the identical sequence must produce the
// identical plans (determinism — the sim's byte-identical-replay
// guarantee reduces to this).
TEST(RuntimePropertyTest, RandomControllerPlansPreserveTheInvariants) {
  using core::control::ActionKind;
  using core::control::ClientClass;
  using core::control::ControllerConfig;
  using core::control::Policy;
  using core::control::QosController;
  using Action = QosController::Action;
  using ClientView = QosController::ClientView;

  const obs::AlertKind kinds[] = {
      obs::AlertKind::kReservationShortfall,
      obs::AlertKind::kCapacityOscillation,
      obs::AlertKind::kFaaStarvation,
      obs::AlertKind::kLeaseChurn,
  };

  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    std::mt19937_64 rng(seed);
    ControllerConfig config;
    config.policy = (seed % 2 != 0u) ? Policy::kAggressive
                                     : Policy::kConservative;
    QosController controller(config);
    QosController twin(config);

    const auto clients =
        static_cast<std::uint32_t>(2 + rng() % 7);  // 2..8 clients
    std::vector<std::int64_t> reservation(clients);
    std::vector<std::int64_t> limit(clients);
    std::vector<std::int64_t> spec_reservation(clients);
    std::vector<bool> burst(clients);
    for (std::uint32_t c = 0; c < clients; ++c) {
      spec_reservation[c] = 100 + static_cast<std::int64_t>(rng() % 2000);
      reservation[c] = spec_reservation[c];
      limit[c] = (rng() % 3 == 0)
                     ? 0  // unlimited
                     : spec_reservation[c] +
                           static_cast<std::int64_t>(rng() % 3000);
      burst[c] = rng() % 2 == 0;
      ClientClass cls;
      cls.priority = static_cast<std::uint8_t>(rng() % 4);
      cls.burst = burst[c];
      const std::int64_t demand =
          100 + static_cast<std::int64_t>(rng() % 4000);
      for (QosController* target : {&controller, &twin}) {
        target->SetClientSpec(c, spec_reservation[c], limit[c], demand);
        target->SetClientClass(c, cls);
      }
    }
    const std::int64_t initial_sum =
        std::accumulate(reservation.begin(), reservation.end(),
                        std::int64_t{0});

    for (std::uint32_t period = 1; period <= 24; ++period) {
      const std::uint64_t alert_count = rng() % 4;
      for (std::uint64_t i = 0; i < alert_count; ++i) {
        obs::Alert alert;
        alert.kind = kinds[rng() % std::size(kinds)];
        alert.severity = (rng() % 2 != 0u) ? obs::AlertSeverity::kCritical
                                           : obs::AlertSeverity::kWarning;
        alert.period = period;
        alert.client = static_cast<std::int64_t>(rng() % clients);
        alert.expected = 50 + static_cast<std::int64_t>(rng() % 2000);
        alert.observed =
            static_cast<std::int64_t>(rng() % 64) * alert.expected / 64;
        controller.OnAlert(alert);
        twin.OnAlert(alert);
      }

      std::vector<ClientView> view;
      for (std::uint32_t c = 0; c < clients; ++c) {
        view.push_back({c, reservation[c], limit[c],
                        static_cast<std::int64_t>(rng() % 2000)});
      }
      const auto plan = controller.PlanBoundary(period, view);
      const auto twin_plan = twin.PlanBoundary(period, view);

      ASSERT_EQ(plan.actions.size(), twin_plan.actions.size())
          << "seed " << seed << " period " << period;
      std::int64_t delta_sum = 0;
      for (std::size_t i = 0; i < plan.actions.size(); ++i) {
        const Action& action = plan.actions[i];
        const Action& twin_action = twin_plan.actions[i];
        EXPECT_TRUE(action.kind == twin_action.kind &&
                    action.client == twin_action.client &&
                    action.value == twin_action.value &&
                    action.delta == twin_action.delta)
            << "twin controllers diverged at seed " << seed << " period "
            << period << " action " << i;
        switch (action.kind) {
          case ActionKind::kResize: {
            ASSERT_GE(action.client, 0);
            const auto c = static_cast<std::uint32_t>(action.client);
            ASSERT_LT(c, clients);
            delta_sum += action.delta;
            EXPECT_EQ(action.value, reservation[c] + action.delta);
            EXPECT_GE(action.value, 0);
            if (limit[c] > 0) EXPECT_LE(action.value, limit[c]);
            if (!burst[c]) {
              EXPECT_LE(action.value,
                        std::max(spec_reservation[c], reservation[c]))
                  << "non-burst client " << c << " grew past its spec";
            }
            reservation[c] = action.value;  // the monitor would apply it
            break;
          }
          case ActionKind::kScaleEta:
            EXPECT_GE(action.value, 125);
            EXPECT_LE(action.value, 1000);
            break;
          case ActionKind::kForceConversion:
          case ActionKind::kReadmit:
            break;
        }
      }
      EXPECT_EQ(delta_sum, 0)
          << "seed " << seed << " period " << period
          << ": plan is not sum-neutral";
      EXPECT_EQ(std::accumulate(reservation.begin(), reservation.end(),
                                std::int64_t{0}),
                initial_sum)
          << "seed " << seed << " period " << period
          << ": total reservation drifted";
    }
  }
}

// The controller rides the threaded runtime's real period boundaries: a
// conservative policy armed over the crash/lease scenario must leave the
// full A1-A10 audit green — in particular every kControlAction the
// monitor applied under real-time scheduling still sums to zero per
// period (A10), and forced actions never break token conservation.
TEST(RuntimePropertyTest, ControllerArmedThreadedRunKeepsTheAuditGreen) {
  harness::ExperimentConfig config = PropertyConfig(4, 29);
  config.watchdog.enabled = true;
  config.control.policy = core::control::Policy::kConservative;

  harness::ThreadedExperiment experiment(config);
  const harness::ThreadedExperimentResult result = experiment.Run();
  ASSERT_NE(experiment.controller(), nullptr);
  EXPECT_TRUE(experiment.controller()->enabled());

  for (const auto& ledger : result.ledger) {
    if (ledger.period >= result.monitor_stats.periods) continue;
    EXPECT_EQ(ledger.initial_pool + ledger.minted - ledger.granted,
              ledger.end_pool)
        << "ledger period " << ledger.period;
  }

  ASSERT_NE(experiment.recorder(), nullptr);
  const obs::AuditReport report =
      obs::AuditTrace(experiment.recorder()->Merged());
  for (const auto& v : report.violations) {
    ADD_FAILURE() << v.check << ": " << v.detail;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.guarantee_checks, 0u);
}

#endif  // HAECHI_WATCHDOG_ENABLED

// The haechi_sim --runtime=threads --monitor-crash-at=1.0
// --monitor-recover-at=1.8 scenario: ten zipf-reserved clients keep
// fetching from the crashed period's pool through the outage, and on a
// loaded host a fetch tagged with the crashed period can be stamped after
// the recovery event. The audit's conservation band must not count such
// an orphaned fetch against the pool the recovery installed. Seeds
// alternate one and four pool shards; ctest runs them in parallel, which
// is the load that exposes late stamps.
class ThreadedMonitorCrashAudit : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedMonitorCrashAudit, TraceAuditsClean) {
#if !HAECHI_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out";
#else
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = 0.05;
  config.qos.token_batch = 50;
  config.qos.pool_shards = GetParam() % 2 == 0 ? 1 : 4;
  config.profiled_global_iops = config.net.GlobalCapacityIops();
  config.profiled_local_iops = config.net.LocalCapacityIops();
  config.warmup = Millis(500);
  config.measure_periods = 4;
  config.seed = static_cast<std::uint64_t>(GetParam());
  config.trace.enabled = true;
  config.trace.ring_capacity = 1u << 18;
  const auto cap = static_cast<std::int64_t>(
      config.net.GlobalCapacityIops() * ToSeconds(config.qos.period));
  const std::int64_t reserved = cap * 9 / 10;
  for (const std::int64_t r :
       workload::ZipfGroupShare(reserved, 10, 5, 0.6)) {
    harness::ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + (cap - reserved);
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  config.faults.MonitorCrashAt(0, Millis(1000), Millis(1800));

  harness::ThreadedExperiment experiment(config);
  const harness::ThreadedExperimentResult result = experiment.Run();
  ASSERT_EQ(result.monitor_stats.crashes, 1u);
  ASSERT_EQ(result.monitor_stats.recoveries, 1u);
  ASSERT_NE(experiment.recorder(), nullptr);
  ASSERT_EQ(experiment.recorder()->TotalDropped(), 0u);
  const obs::AuditReport report =
      obs::AuditTrace(experiment.recorder()->Merged());
  EXPECT_EQ(obs::FirstFailedCheck(report), 0) << report.Summary();
  EXPECT_FALSE(report.clean);
#endif
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedMonitorCrashAudit,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace haechi
