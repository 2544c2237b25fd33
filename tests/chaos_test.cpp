// Chaos soak: full Haechi experiments under randomized fault plans and
// scripted client crashes, swept across seeds. The properties under test:
// the system neither crashes nor stalls, surviving clients keep meeting
// their reservations, a dead client's claims are reclaimed through the
// report lease, a restarted client re-admits cleanly (no admission-slot
// leak), and every run replays bit-identically under a fixed seed.
#include <gtest/gtest.h>

#include <numeric>

#include "harness/experiment.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

using harness::ClientSpec;
using harness::Experiment;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::Mode;

constexpr std::size_t kClients = 4;

std::int64_t Capacity(const ExperimentConfig& config) {
  return static_cast<std::int64_t>(config.net.GlobalCapacityIops());
}

/// A small saturated Haechi cluster with the report lease armed: 60% of
/// capacity reserved, every client's open-loop demand well above its share.
ExperimentConfig ChaosBase(std::uint64_t seed) {
  ExperimentConfig config;
  config.mode = Mode::kHaechi;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(1);
  config.measure_periods = 4;
  config.records = 256;
  config.qos.token_batch = 100;
  config.qos.report_lease_intervals = 8;
  config.seed = seed;
  const std::int64_t cap = Capacity(config);
  for (const auto r : workload::UniformShare(cap * 6 / 10, kClients)) {
    ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + cap / 5;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  return config;
}

/// The randomized transport-fault mix for one seed. Faults target the QoS
/// control plane (token FAAs and report WRITEs — the paths the resilience
/// machinery must absorb) plus a low-rate delay on every op. Control SENDs
/// are left alone: a lost PeriodStart legitimately costs that client its
/// period, which is not the invariant under test here.
rdma::FaultPlan RandomFaults(std::uint64_t seed) {
  rdma::FaultPlan plan;
  plan.seed = seed * 7919 + 1;

  rdma::FaultRule drop_faa;
  drop_faa.action = rdma::FaultAction::kDrop;
  drop_faa.opcode = rdma::Opcode::kFetchAdd;
  drop_faa.probability = 0.05;
  plan.Add(drop_faa);

  rdma::FaultRule drop_report;
  drop_report.action = rdma::FaultAction::kDrop;
  drop_report.opcode = rdma::Opcode::kWrite;
  drop_report.probability = 0.05;
  plan.Add(drop_report);

  rdma::FaultRule dup_report;
  dup_report.action = rdma::FaultAction::kDuplicate;
  dup_report.opcode = rdma::Opcode::kWrite;
  dup_report.probability = 0.05;
  plan.Add(dup_report);

  rdma::FaultRule jitter;
  jitter.action = rdma::FaultAction::kDelay;
  jitter.probability = 0.1;
  jitter.delay = 3'000;
  plan.Add(jitter);
  return plan;
}

/// Quiesces everything that posts verbs (the monitor and every engine),
/// lets in-flight ops drain, and returns the fabric's live op records. Any
/// non-zero count is a record leaked by some fault path.
std::size_t LiveOpsAfterDrain(Experiment& experiment) {
  experiment.monitor()->Stop();
  for (std::size_t i = 0; i < experiment.config().clients.size(); ++i) {
    experiment.engine(i).Stop();
  }
  sim::Simulator& sim = experiment.simulator();
  sim.RunUntil(sim.Now() + Millis(100));
  return experiment.fabric().LiveOps();
}

// ---------------------------------------------------------------------------
// Soak across 8 seeds: transport chaos plus one client crash/restart per
// run. No crash, no stall (the run finishes), survivors hold their
// reservations every period, the victim is reclaimed by the lease and
// later re-admitted without leaking an admission slot.

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, SurvivesRandomizedFaultPlan) {
  const std::uint64_t seed = GetParam();
  ExperimentConfig config = ChaosBase(seed);
  config.measure_periods = 5;
  config.faults = RandomFaults(seed);

  // One client crashes mid-period (offset varies with the seed) and
  // restarts two periods later.
  const std::size_t victim = seed % kClients;
  ExperimentConfig::ClientFault fault;
  fault.client = victim;
  fault.crash_at = Seconds(2) + Millis(200 + 37 * (seed % 16));
  fault.restart_at = Seconds(4) + Millis(100);
  config.client_faults.push_back(fault);

  Experiment experiment(std::move(config));
  ExperimentResult result = experiment.Run();

  // The run finished and the plan actually perturbed the fabric.
  EXPECT_GT(result.total_kiops, 0.0);
  EXPECT_GT(result.fault_stats.ops_dropped, 0u);

  // The crash was detected by the report lease and the reservation
  // reclaimed; the restart re-admitted the client, so the admission table
  // is full again — no leaked or lost slot.
  EXPECT_GE(result.monitor_stats.lease_expirations, 1u);
  EXPECT_GT(result.monitor_stats.reclaimed_tokens, 0);
  ASSERT_NE(experiment.monitor(), nullptr);
  EXPECT_EQ(experiment.monitor()->admission().AdmittedCount(), kClients);

  // Survivors kept their reservations in every measured period (the
  // victim's own periods are disturbed by design). The 90% floor leaves
  // room for the injected FAA/report losses.
  for (std::uint32_t c = 0; c < kClients; ++c) {
    if (c == victim) continue;
    EXPECT_GE(result.series.ClientMinPerPeriod(MakeClientId(c)),
              result.reservations[c] * 90 / 100)
        << "seed " << seed << " surviving client " << c;
  }

  // Drops, duplicates, delays and the crash released every op record.
  EXPECT_EQ(LiveOpsAfterDrain(experiment), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Survivability chaos: the full fault matrix at once — the monitor crashes
// and recovers from its checkpoint (DESIGN.md §15) WHILE a client is dead
// and the transport is dropping FAAs and reports. The control plane must
// come back, the survivors must re-sync out of degraded mode, and every
// conservation identity must hold on the combined-fault trace.

class SurvivabilityChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SurvivabilityChaos, MonitorAndClientCrashUnderTransportFaults) {
  const std::uint64_t seed = GetParam();
  ExperimentConfig config = ChaosBase(seed);
  config.measure_periods = 8;
  config.trace.enabled = true;
  config.faults = RandomFaults(seed);

  // One client dies for two periods (offset varies with the seed)...
  const std::size_t victim = seed % kClients;
  ExperimentConfig::ClientFault fault;
  fault.client = victim;
  fault.crash_at = Seconds(2) + Millis(200 + 37 * (seed % 16));
  fault.restart_at = Seconds(4) + Millis(100);
  config.client_faults.push_back(fault);

  // ...and the monitor itself dies later the same run, long enough for
  // every surviving engine's degraded grace to trip (crash offset varies
  // with the seed so the checkpoint epoch and wreckage differ per run).
  const SimTime crash = Seconds(5) + Millis(100 + 53 * (seed % 8));
  config.faults.MonitorCrashAt(0, crash, crash + Seconds(1) + Millis(700));

  Experiment experiment(std::move(config));
  ExperimentResult result = experiment.Run();

  // The run finished, both fault channels actually fired, and the monitor
  // came back exactly once.
  EXPECT_GT(result.total_kiops, 0.0);
  EXPECT_GT(result.fault_stats.ops_dropped, 0u);
  EXPECT_EQ(result.monitor_stats.crashes, 1u);
  EXPECT_EQ(result.monitor_stats.recoveries, 1u);

  // The recovery reconciled the checkpoint against the live slots: the
  // admission table is whole again (the victim restarted before the
  // monitor crashed, so all four clients are provisioned).
  ASSERT_NE(experiment.monitor(), nullptr);
  EXPECT_EQ(experiment.monitor()->admission().AdmittedCount(), kClients);

  // Survivors rode out the outage in reservation-only mode and re-synced.
  for (std::uint32_t c = 0; c < kClients; ++c) {
    if (c == victim) continue;
    EXPECT_GE(result.engine_stats[c].degraded_entries, 1u)
        << "seed " << seed << " client " << c;
  }

  // Every conservation identity holds on the combined-fault trace (A5 in
  // its banded faulted form, A9 with crash and outage windows excluded,
  // A11 checkpoint consistency).
  ASSERT_NE(experiment.recorder(), nullptr);
  const obs::AuditReport report =
      obs::AuditTrace(experiment.recorder()->Merged());
  EXPECT_TRUE(report.violations.empty())
      << "seed " << seed << ": " << report.violations.size()
      << " violations, first: "
      << (report.violations.empty() ? "" : report.violations[0].detail);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SurvivabilityChaos,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// The demo scenario: a client crashes mid-period and never returns. The
// monitor reclaims its claims within the lease, surviving clients'
// aggregate throughput recovers to >= 95% of the pre-crash aggregate, and
// the whole scenario replays bit-identically.

ExperimentConfig CrashDemoConfig(std::uint64_t seed) {
  ExperimentConfig config = ChaosBase(seed);
  config.measure_periods = 6;
  ExperimentConfig::ClientFault fault;
  fault.client = 0;
  fault.crash_at = Seconds(2) + Millis(500);  // mid monitor-period 2
  config.client_faults.push_back(fault);
  return config;
}

TEST(CrashReclamationDemo, LeaseReclaimsAndSurvivorsRecover) {
  Experiment experiment(CrashDemoConfig(5));
  ExperimentResult result = experiment.Run();

  EXPECT_EQ(result.monitor_stats.lease_expirations, 1u);
  EXPECT_EQ(result.monitor_stats.readmissions, 0u);
  EXPECT_GT(result.monitor_stats.reclaimed_tokens, 0);
  EXPECT_EQ(experiment.monitor()->admission().AdmittedCount(), kClients - 1);

  // The lease (k = 8 check intervals of 1 ms) catches the crash inside the
  // same monitor period it happened in: that period's ledger entry carries
  // the reclaimed residual.
  const auto& ledger = experiment.monitor()->ledger();
  ASSERT_GT(ledger.size(), 2u);
  EXPECT_GT(ledger[2].reclaimed, 0);

  // Measured periods cover [1s, 7s); the crash lands in series period 1.
  // Compare the survivors' aggregate in the last measured period against
  // their pre-crash aggregate: with the dead client's claims reclaimed it
  // must recover to at least 95% — and in fact grow, because the
  // capacity-starved survivors' open-loop demand absorbs the freed tokens.
  auto survivors_at = [&result](std::size_t period) {
    std::int64_t sum = 0;
    for (std::uint32_t c = 1; c < kClients; ++c) {
      sum += result.series.At(period, MakeClientId(c));
    }
    return sum;
  };
  const std::int64_t before = survivors_at(0);
  const std::int64_t after = survivors_at(result.series.Periods() - 1);
  EXPECT_GE(after, before * 95 / 100);
  EXPECT_GT(after, before);
}

TEST(CrashReclamationDemo, FullyDeterministicUnderAFixedSeed) {
  ExperimentResult a = Experiment(CrashDemoConfig(7)).Run();
  ExperimentResult b = Experiment(CrashDemoConfig(7)).Run();
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.total_kiops, b.total_kiops);
  EXPECT_EQ(a.monitor_stats.lease_expirations,
            b.monitor_stats.lease_expirations);
  EXPECT_EQ(a.monitor_stats.reclaimed_tokens, b.monitor_stats.reclaimed_tokens);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(a.series.ClientTotal(MakeClientId(c)),
              b.series.ClientTotal(MakeClientId(c)));
  }
}

// ---------------------------------------------------------------------------
// Re-admission handshake WITHOUT a lease expiry: the client restarts
// before the monitor notices anything, re-admits under its old id (the
// stale incarnation's admission is released first), and the admission
// table neither leaks nor double-counts.

TEST(Readmission, RestartBeforeLeaseExpiryReplacesTheOldAdmission) {
  ExperimentConfig config = ChaosBase(3);
  config.qos.report_lease_intervals = 0;  // lease disabled: silent crash
  config.measure_periods = 5;
  ExperimentConfig::ClientFault fault;
  fault.client = 1;
  fault.crash_at = Seconds(2) + Millis(300);
  fault.restart_at = Seconds(2) + Millis(900);
  config.client_faults.push_back(fault);

  Experiment experiment(std::move(config));
  ExperimentResult result = experiment.Run();

  EXPECT_EQ(result.monitor_stats.lease_expirations, 0u);
  EXPECT_EQ(result.monitor_stats.readmissions, 1u);
  EXPECT_EQ(experiment.monitor()->admission().AdmittedCount(), kClients);
  EXPECT_EQ(experiment.monitor()->admission().TotalReserved(),
            std::accumulate(result.reservations.begin(),
                            result.reservations.end(), std::int64_t{0}));
  // The restarted client resumes service: its last measured period shows
  // completions again.
  EXPECT_GT(result.series.At(result.series.Periods() - 1, MakeClientId(1)), 0);
}

}  // namespace
}  // namespace haechi
