// Trace-replay audit tests: the auditor independently re-verifies token
// conservation and the reservation guarantee from exported traces of the
// paper's Figure-10 insufficient-demand scenario and the chaos
// crash-reclamation scenario — and rejects corrupted traces (dropped
// lines, tampered pool words, forged ledger fields).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/audit.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

using harness::ClientSpec;
using harness::Experiment;
using harness::ExperimentConfig;
using obs::AuditOptions;
using obs::AuditReport;
using obs::EventType;
using obs::TraceEvent;

std::int64_t Capacity(const ExperimentConfig& config) {
  return static_cast<std::int64_t>(config.net.GlobalCapacityIops());
}

/// Runs the experiment with the flight recorder on and returns the merged
/// event stream (what ExportTraceFile would write).
std::vector<TraceEvent> TraceOf(ExperimentConfig config) {
  config.trace.enabled = true;
  Experiment experiment(std::move(config));
  experiment.Run();
  return experiment.recorder()->Merged();
}

bool HasViolation(const AuditReport& report, const std::string& check) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const obs::AuditViolation& v) {
                       return v.check == check;
                     });
}

bool HasEvent(const std::vector<TraceEvent>& events, EventType type) {
  return std::any_of(events.begin(), events.end(), [&](const TraceEvent& e) {
    return e.type == type;
  });
}

// ---------------------------------------------------------------------------
// Scenario configs (scaled-down versions of the acceptance scenarios).

/// Figure 10: 10 clients, 90% of capacity reserved, C1/C2's demand stops at
/// half their reservation — token conversion recycles the shortfall.
ExperimentConfig Fig10Config() {
  ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(1);
  config.measure_periods = 6;
  config.records = 256;
  config.seed = 42;
  const std::int64_t cap = Capacity(config);
  const std::int64_t reserved = cap * 9 / 10;
  const std::int64_t pool = cap - reserved;
  const auto reservations = workload::UniformShare(reserved, 10);
  for (std::size_t i = 0; i < reservations.size(); ++i) {
    ClientSpec spec;
    spec.reservation = reservations[i];
    spec.demand = i < 2 ? reservations[i] / 2 : reservations[i] + pool;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  return config;
}

/// The chaos crash-reclamation demo: saturated 4-client cluster, client 0
/// crashes mid-period-2 and never returns; the report lease reclaims it.
ExperimentConfig CrashReclamationConfig(std::uint64_t seed) {
  ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(1);
  config.measure_periods = 6;
  config.records = 256;
  config.qos.token_batch = 100;
  config.qos.report_lease_intervals = 8;
  config.seed = seed;
  const std::int64_t cap = Capacity(config);
  for (const auto r : workload::UniformShare(cap * 6 / 10, 4)) {
    ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + cap / 5;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  ExperimentConfig::ClientFault fault;
  fault.client = 0;
  fault.crash_at = Seconds(2) + Millis(500);
  config.client_faults.push_back(fault);
  return config;
}

/// Transport chaos on the QoS control plane (the chaos_test mix): dropped
/// FAAs and reports, duplicated reports, jitter on everything.
rdma::FaultPlan ControlPlaneFaults(std::uint64_t seed) {
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

// ---------------------------------------------------------------------------
// CSV tampering helpers. Format: time_ns,kind,actor,seq,type,period,a,b,c.

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::size_t FindLine(const std::vector<std::string>& lines,
                     const std::string& needle) {
  for (std::size_t i = 1; i < lines.size(); ++i) {  // skip the header
    if (lines[i].find(needle) != std::string::npos) return i;
  }
  return lines.size();
}

/// Replaces CSV field `index` (0-based) of `line` with `value`.
std::string WithField(const std::string& line, std::size_t index,
                      const std::string& value) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  fields.at(index) = value;
  std::string out = fields[0];
  for (std::size_t i = 1; i < fields.size(); ++i) out += "," + fields[i];
  return out;
}

// ---------------------------------------------------------------------------
// The acceptance scenarios audit clean.

TEST(Audit, Fig10InsufficientDemandTraceSatisfiesEveryIdentity) {
#if !HAECHI_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out";
#else
  const auto events = TraceOf(Fig10Config());
  ASSERT_TRUE(HasEvent(events, EventType::kTokenConvert));
  const AuditReport report = obs::AuditTrace(events);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(report.clean);
  EXPECT_GT(report.checks_run, 1000);
  // A9 covered every demanding client over the measured periods.
  EXPECT_GE(report.guarantee_checks, 10 * 4);
  // The re-derived ledger saw real token flow.
  bool saw_grants = false;
  for (const auto& p : report.periods) {
    if (p.closed && p.granted > 0) saw_grants = true;
  }
  EXPECT_TRUE(saw_grants);
#endif
}

TEST(Audit, CrashReclamationTraceSatisfiesLedgerAndLeaseIdentities) {
#if !HAECHI_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out";
#else
  const auto events = TraceOf(CrashReclamationConfig(5));
  // The scenario actually exercised the reclamation machinery.
  ASSERT_TRUE(HasEvent(events, EventType::kClientCrash));
  ASSERT_TRUE(HasEvent(events, EventType::kLeaseExpire));

  AuditOptions options;
  options.guarantee_fraction = 0.9;  // survivors' bar under a mid-run crash
  const AuditReport report = obs::AuditTrace(events, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // A client crash means the strict per-period FAA identity is replaced by
  // the run-total band — the report records why.
  EXPECT_FALSE(report.clean);
  EXPECT_GT(report.guarantee_checks, 0);
#endif
}

TEST(Audit, ChaosFaultPlanTraceStaysWithinTheConservationBand) {
#if !HAECHI_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out";
#else
  ExperimentConfig config = CrashReclamationConfig(1);
  config.faults = ControlPlaneFaults(1);
  config.client_faults.back().restart_at = Seconds(4) + Millis(100);
  const auto events = TraceOf(std::move(config));
  ASSERT_TRUE(HasEvent(events, EventType::kOpDropped));

  AuditOptions options;
  options.guarantee_fraction = 0.85;  // lossy control plane
  const AuditReport report = obs::AuditTrace(events, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_FALSE(report.clean);
#endif
}

// ---------------------------------------------------------------------------
// Corrupted traces are rejected with the right check.

#if HAECHI_TRACE_ENABLED

class AuditCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = Fig10Config();
    config.measure_periods = 4;
    csv_ = new std::string(obs::ToCsvString(TraceOf(std::move(config))));
    ASSERT_TRUE(obs::AuditTrace(obs::ParseCsvTrace(*csv_).value()).ok());
  }
  static void TearDownTestSuite() {
    delete csv_;
    csv_ = nullptr;
  }

  static AuditReport AuditText(const std::string& text) {
    auto parsed = obs::ParseCsvTrace(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return obs::AuditTrace(parsed.value());
  }

  static std::string* csv_;
};

std::string* AuditCorruption::csv_ = nullptr;

TEST_F(AuditCorruption, ADroppedEventLineFailsStreamIntegrity) {
  auto lines = SplitLines(*csv_);
  const std::size_t victim = FindLine(lines, ",pool_sample,");
  ASSERT_LT(victim, lines.size());
  lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(victim));
  const AuditReport report = AuditText(JoinLines(lines));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "A1")) << report.Summary();
}

TEST_F(AuditCorruption, AForgedInitialPoolFailsTheDispatchIdentity) {
  auto lines = SplitLines(*csv_);
  const std::size_t victim = FindLine(lines, ",period_start,");
  ASSERT_LT(victim, lines.size());
  lines[victim] = WithField(lines[victim], 8, "999999999");  // c=initial_pool
  const AuditReport report = AuditText(JoinLines(lines));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "A2")) << report.Summary();
}

TEST_F(AuditCorruption, AnInflatedPoolSampleFailsPoolMonotonicity) {
  auto lines = SplitLines(*csv_);
  const std::size_t victim = FindLine(lines, ",pool_sample,");
  ASSERT_LT(victim, lines.size());
  lines[victim] = WithField(lines[victim], 6, "888888888");  // a=raw pool
  const AuditReport report = AuditText(JoinLines(lines));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "A3")) << report.Summary();
}

TEST_F(AuditCorruption, FirstFailedCheckMapsTheLowestBrokenIdentity) {
  // haechi_audit exits 10+k for the first failed Ak; 0 means clean.
  const AuditReport clean = AuditText(*csv_);
  EXPECT_EQ(obs::FirstFailedCheck(clean), 0);

  auto dropped = SplitLines(*csv_);
  const std::size_t gap = FindLine(dropped, ",pool_sample,");
  ASSERT_LT(gap, dropped.size());
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(gap));
  EXPECT_EQ(obs::FirstFailedCheck(AuditText(JoinLines(dropped))), 1);

  auto forged = SplitLines(*csv_);
  const std::size_t start = FindLine(forged, ",period_start,");
  ASSERT_LT(start, forged.size());
  forged[start] = WithField(forged[start], 8, "999999999");
  EXPECT_EQ(obs::FirstFailedCheck(AuditText(JoinLines(forged))), 2);

  auto inflated = SplitLines(*csv_);
  const std::size_t sample = FindLine(inflated, ",pool_sample,");
  ASSERT_LT(sample, inflated.size());
  inflated[sample] = WithField(inflated[sample], 6, "888888888");
  EXPECT_EQ(obs::FirstFailedCheck(AuditText(JoinLines(inflated))), 3);
}

TEST_F(AuditCorruption, AnUntaggedFetchResultFailsConservation) {
  // Every fetch result names the tokens its FAA posted; c=0 is malformed
  // input, not a fetch of the run's token batch.
  auto lines = SplitLines(*csv_);
  const std::size_t victim = FindLine(lines, ",faa_done,");
  ASSERT_LT(victim, lines.size());
  lines[victim] = WithField(lines[victim], 8, "0");  // c=tokens posted
  const AuditReport report = AuditText(JoinLines(lines));
  EXPECT_FALSE(report.ok());
  const auto untagged = std::find_if(
      report.violations.begin(), report.violations.end(),
      [](const obs::AuditViolation& v) {
        return v.check == "A5" &&
               v.detail.find("untagged fetch") != std::string::npos;
      });
  EXPECT_NE(untagged, report.violations.end()) << report.Summary();
}

TEST_F(AuditCorruption, AnUnknownEventNameIsRejectedByTheParser) {
  auto lines = SplitLines(*csv_);
  const std::size_t victim = FindLine(lines, ",pool_sample,");
  ASSERT_LT(victim, lines.size());
  lines[victim] = WithField(lines[victim], 4, "pool_oracle");
  EXPECT_FALSE(obs::ParseCsvTrace(JoinLines(lines)).ok());
}

TEST_F(AuditCorruption, AnOutOfRangeActorOrPeriodIsRejectedWithItsLine) {
  // Actor and period are 32-bit: a wider value must not alias actor 0's
  // stream or period 0.
  auto lines = SplitLines(*csv_);
  const std::size_t victim = FindLine(lines, ",pool_sample,");
  ASSERT_LT(victim, lines.size());
  const std::string line_no = "line " + std::to_string(victim + 1);

  auto wide_actor = lines;
  wide_actor[victim] = WithField(lines[victim], 2, "4294967296");
  const auto actor = obs::ParseCsvTrace(JoinLines(wide_actor));
  ASSERT_FALSE(actor.ok());
  EXPECT_NE(actor.status().ToString().find("actor out of range on " +
                                           line_no),
            std::string::npos)
      << actor.status().ToString();

  auto wide_period = lines;
  wide_period[victim] = WithField(lines[victim], 5, "4294967296");
  const auto period = obs::ParseCsvTrace(JoinLines(wide_period));
  ASSERT_FALSE(period.ok());
  EXPECT_NE(period.status().ToString().find("period out of range on " +
                                            line_no),
            std::string::npos)
      << period.status().ToString();

  // The widest in-range values still parse exactly.
  auto widest = lines;
  widest[victim] = WithField(WithField(lines[victim], 2, "4294967295"), 5,
                             "4294967295");
  const auto parsed = obs::ParseCsvTrace(JoinLines(widest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value()[victim - 1].actor, 4294967295u);
  EXPECT_EQ(parsed.value()[victim - 1].period, 4294967295u);
}

TEST_F(AuditCorruption, ATruncatedRingIsDetectedUnlessExplicitlyAllowed) {
  auto config = Fig10Config();
  config.measure_periods = 4;
  config.trace.enabled = true;
  config.trace.ring_capacity = 64;  // far too small for the monitor stream
  Experiment experiment(std::move(config));
  experiment.Run();
  ASSERT_GT(experiment.recorder()->TotalDropped(), 0u);
  const AuditReport report =
      obs::AuditTrace(experiment.recorder()->Merged());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "A1"));
}

#endif  // HAECHI_TRACE_ENABLED

// ---------------------------------------------------------------------------
// Synthetic traces pin single rules (no tracing needed: events are built
// by hand, the way a parsed export arrives).

TraceEvent Ev(SimTime time, obs::ActorKind kind, std::uint32_t actor,
              EventType type, std::uint32_t period, std::int64_t a = 0,
              std::int64_t b = 0, std::int64_t c = 0) {
  TraceEvent event;
  event.time = time;
  event.type = type;
  event.actor_kind = kind;
  event.actor = actor;
  event.period = period;
  event.a = a;
  event.b = b;
  event.c = c;
  return event;
}

/// Stamps the dense per-actor seqs the recorder always emits; `events` is
/// in time order, as Merged() exports it.
std::vector<TraceEvent> DenseSeqs(std::vector<TraceEvent> events) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> next;
  for (TraceEvent& event : events) {
    event.seq =
        next[{static_cast<std::uint32_t>(event.actor_kind), event.actor}]++;
  }
  return events;
}

std::size_t PoolConservationAlerts(const std::vector<TraceEvent>& events) {
  const auto alerts = obs::ReplayTrace(events);
  return static_cast<std::size_t>(
      std::count_if(alerts.begin(), alerts.end(), [](const obs::Alert& a) {
        return a.kind == obs::AlertKind::kPoolConservation;
      }));
}

constexpr auto kHar = obs::ActorKind::kHarness;
constexpr auto kMon = obs::ActorKind::kMonitor;
constexpr auto kEng = obs::ActorKind::kEngine;
constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
constexpr SimTime kMin = std::numeric_limits<SimTime>::min();

TEST(AuditOverflow, HostileTimesSaturateInsteadOfWrapping) {
  // A client crashed over [0, 10) with a 2^62 ns period: its exclusion
  // window pads to restart + 2T = 2^63 + 10, past SimTime. Wrapping would
  // end the window before the period and judge the crashed client.
  const std::vector<TraceEvent> crash_padding = DenseSeqs({
      Ev(0, kHar, 0, EventType::kRunConfig, 0, std::int64_t{1} << 62, 10),
      Ev(0, kHar, 0, EventType::kMeasureStart, 0),
      Ev(0, kHar, 0, EventType::kClientSpec, 0, 100, 0, 100),
      Ev(0, kHar, 0, EventType::kClientCrash, 0),
      Ev(10, kHar, 0, EventType::kClientRestart, 0),
      Ev(20, kMon, 0, EventType::kMonitorPeriodStart, 1, 1000, 100, 900),
      Ev(30, kMon, 0, EventType::kReportSignal, 1),
      Ev(40, kMon, 0, EventType::kMonitorPeriodEnd, 1, 900, 0, 0),
      Ev(kMax, kHar, 0, EventType::kMeasureEnd, 0),
  });
  const AuditReport padded = obs::AuditTrace(crash_padding);
  EXPECT_TRUE(padded.ok()) << padded.Summary();
  EXPECT_EQ(padded.guarantee_checks, 0);
  EXPECT_TRUE(obs::ReplayTrace(crash_padding).empty());

  // A period starting 50 ns before the end of time: start + T overflows.
  // It cannot end inside a window that closed before it began.
  const std::vector<TraceEvent> late_period = DenseSeqs({
      Ev(0, kHar, 0, EventType::kRunConfig, 0, 100, 10),
      Ev(0, kHar, 0, EventType::kMeasureStart, 0),
      Ev(0, kHar, 0, EventType::kClientSpec, 0, 100, 0, 100),
      Ev(kMax - 60, kHar, 0, EventType::kMeasureEnd, 0),
      Ev(kMax - 50, kMon, 0, EventType::kMonitorPeriodStart, 1, 1000, 100,
         900),
      Ev(kMax - 40, kMon, 0, EventType::kReportSignal, 1),
      Ev(kMax - 10, kMon, 0, EventType::kMonitorPeriodEnd, 1, 900, 0, 0),
  });
  const AuditReport late = obs::AuditTrace(late_period);
  EXPECT_TRUE(late.ok()) << late.Summary();
  EXPECT_EQ(late.guarantee_checks, 0);
  EXPECT_TRUE(obs::ReplayTrace(late_period).empty());

  // A conversion a whole time range after its period started has no time
  // budget left: the elapsed time saturates instead of wrapping negative
  // (which would grant a budget above the period's capacity).
  const std::vector<TraceEvent> late_conversion = DenseSeqs({
      Ev(0, kHar, 0, EventType::kRunConfig, 0, 100, 10),
      Ev(kMin, kMon, 0, EventType::kMonitorPeriodStart, 1, 1000, 0, 1000),
      Ev(kMax, kMon, 0, EventType::kTokenConvert, 1, 1000, 1005),
  });
  const AuditReport converted = obs::AuditTrace(late_conversion);
  EXPECT_EQ(obs::FirstFailedCheck(converted), 4) << converted.Summary();
  EXPECT_EQ(PoolConservationAlerts(late_conversion), 1u);
}

TEST(AuditConservationBand, FetchesOrphanedByAMonitorOutageLeaveTheLowerBound) {
  // The engine's second fetch drew from the crashed period's pool (tagged
  // period 1) but its completion is stamped after the recovery installed
  // a fresh pool: no pool observation can ever see its tokens.
  const auto trace = [](std::uint32_t late_fetch_period) {
    return DenseSeqs({
        Ev(0, kHar, 0, EventType::kRunConfig, 0, 1000, 10),
        Ev(0, kMon, 0, EventType::kMonitorPeriodStart, 1, 1000, 0, 1000),
        Ev(10, kEng, 0, EventType::kTokenFetch, 1, 10),
        Ev(20, kEng, 0, EventType::kTokenFetchDone, 1, 1000, 10, 10),
        Ev(30, kMon, 0, EventType::kPoolSample, 1, 990),
        Ev(40, kEng, 0, EventType::kTokenFetch, late_fetch_period, 10),
        Ev(50, kMon, 0, EventType::kMonitorCrash, 1),
        Ev(100, kMon, 0, EventType::kMonitorRecover, 1),
        Ev(100, kMon, 0, EventType::kMonitorPeriodStart, 2, 1000, 0, 1000),
        Ev(150, kEng, 0, EventType::kTokenFetchDone, late_fetch_period, 990,
           10, 10),
        Ev(200, kMon, 0, EventType::kPoolSample, 2, 1000),
        Ev(1100, kMon, 0, EventType::kMonitorPeriodEnd, 2, 1000, 0, 0),
    });
  };
  const AuditReport orphaned = obs::AuditTrace(trace(1));
  EXPECT_FALSE(orphaned.clean);
  EXPECT_TRUE(orphaned.ok()) << orphaned.Summary();

  // The rule is no wider than the crash: the same completion tagged with
  // the post-recovery period should have drained the watched pool, so the
  // band still convicts the missing grant.
  const AuditReport counted = obs::AuditTrace(trace(2));
  EXPECT_EQ(obs::FirstFailedCheck(counted), 5) << counted.Summary();
}

}  // namespace
}  // namespace haechi
