// Online SLO watchdog tests: alert sinks, synthetic-stream rule checks
// (W2/W4/W5), and the end-to-end contracts from the acceptance criteria —
// a clean run raises nothing, same-seed runs emit byte-identical alert
// JSONL, and the online verdicts agree with the offline auditor on the
// same trace, both for healthy runs and for tampered ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/coordinator.hpp"
#include "harness/cluster_experiment.hpp"
#include "harness/experiment.hpp"
#include "obs/alerts.hpp"
#include "obs/audit.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

using harness::ClientSpec;
using harness::Experiment;
using harness::ExperimentConfig;
using obs::Alert;
using obs::AlertKind;
using obs::AlertSeverity;
using obs::EventType;
using obs::TraceEvent;

std::int64_t Capacity(const ExperimentConfig& config) {
  return static_cast<std::int64_t>(config.net.GlobalCapacityIops());
}

/// Scaled-down fig09: 10 clients, 90% reserved, everyone hungry — the
/// healthy scenario that must never alarm.
ExperimentConfig Fig09Config() {
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
  for (const auto r : workload::UniformShare(reserved, 10)) {
    ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + pool;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  return config;
}

/// Scaled-down fig10: C1/C2's demand stops at half their reservation, so
/// token conversion recycles the shortfall (audit_test's scenario).
/// maybe_unused: referenced only by the watchdog-gated tests below.
[[maybe_unused]] ExperimentConfig Fig10Config() {
  ExperimentConfig config = Fig09Config();
  const std::int64_t cap = Capacity(config);
  const std::int64_t pool = cap - cap * 9 / 10;
  for (std::size_t i = 0; i < 2; ++i) {
    config.clients[i].demand = (config.clients[i].demand - pool) / 2;
  }
  return config;
}

/// The chaos crash-reclamation scenario: saturated 4-client cluster,
/// client 0 crashes mid-run, the report lease reclaims its tokens.
[[maybe_unused]] ExperimentConfig CrashChaosConfig(std::uint64_t seed) {
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

/// CrashChaosConfig plus a restart and a lossy control plane (dropped
/// FAAs/reports, duplicated reports, jitter) — the chaos_test fault mix.
[[maybe_unused]] ExperimentConfig FaultyChaosConfig(std::uint64_t seed) {
  ExperimentConfig config = CrashChaosConfig(seed);
  config.client_faults.back().restart_at = Seconds(4) + Millis(100);
  config.faults.seed = seed * 7919 + 1;
  rdma::FaultRule drop_faa;
  drop_faa.action = rdma::FaultAction::kDrop;
  drop_faa.opcode = rdma::Opcode::kFetchAdd;
  drop_faa.probability = 0.05;
  config.faults.Add(drop_faa);
  rdma::FaultRule drop_report;
  drop_report.action = rdma::FaultAction::kDrop;
  drop_report.opcode = rdma::Opcode::kWrite;
  drop_report.probability = 0.05;
  config.faults.Add(drop_report);
  rdma::FaultRule dup_report;
  dup_report.action = rdma::FaultAction::kDuplicate;
  dup_report.opcode = rdma::Opcode::kWrite;
  dup_report.probability = 0.05;
  config.faults.Add(dup_report);
  rdma::FaultRule jitter;
  jitter.action = rdma::FaultAction::kDelay;
  jitter.probability = 0.1;
  jitter.delay = 3'000;
  config.faults.Add(jitter);
  return config;
}

std::size_t CountKind(const std::vector<Alert>& alerts, AlertKind kind) {
  return static_cast<std::size_t>(
      std::count_if(alerts.begin(), alerts.end(),
                    [&](const Alert& a) { return a.kind == kind; }));
}

// ---------------------------------------------------------------------------
// Alert records and sinks (no tracing needed — plain data structures).

TEST(Alerts, JsonlHasStableFieldOrderAndEscapesCause) {
  Alert alert;
  alert.kind = AlertKind::kReservationShortfall;
  alert.severity = AlertSeverity::kCritical;
  alert.time = 5'000'000;
  alert.period = 7;
  alert.client = 3;
  alert.expected = 950;
  alert.observed = 412;
  alert.cause = "client \"3\" under-served\nsecond line";
  EXPECT_EQ(obs::ToJsonl(alert),
            "{\"time_ns\":5000000,\"period\":7,"
            "\"kind\":\"reservation_shortfall\",\"severity\":\"critical\","
            "\"client\":3,\"expected\":950,\"observed\":412,"
            "\"cause\":\"client \\\"3\\\" under-served\\nsecond line\"}");
}

TEST(Alerts, RingSinkKeepsTheNewestAlertsAndCountsDrops) {
  obs::RingAlertSink ring(2);
  for (std::uint32_t p = 0; p < 5; ++p) {
    Alert alert;
    alert.period = p;
    ring.OnAlert(alert);
  }
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 3u);
  ASSERT_EQ(ring.alerts().size(), 2u);
  EXPECT_EQ(ring.alerts().front().period, 3u);
  EXPECT_EQ(ring.alerts().back().period, 4u);
}

TEST(Alerts, JsonlSinkBuffersLinesAndFlushesToDisk) {
  obs::JsonlAlertSink buffered("");  // empty path: buffer only
  Alert alert;
  alert.period = 1;
  buffered.OnAlert(alert);
  buffered.OnAlert(alert);
  EXPECT_EQ(buffered.count(), 2u);
  EXPECT_TRUE(buffered.Flush().ok());

  const std::string path = ::testing::TempDir() + "/haechi_alerts_test.jsonl";
  obs::JsonlAlertSink file_sink(path);
  file_sink.OnAlert(alert);
  ASSERT_TRUE(file_sink.Flush().ok());
  const auto written = obs::ReadFileToString(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), file_sink.buffer());
  EXPECT_EQ(written.value(), obs::ToJsonl(alert) + "\n");

  obs::JsonlAlertSink bad_sink("/nonexistent-dir/alerts.jsonl");
  bad_sink.OnAlert(alert);
  EXPECT_FALSE(bad_sink.Flush().ok());
}

TEST(Alerts, StatusLineIsDeterministic) {
  obs::PeriodStatus status;
  status.period = 12;
  status.capacity = 5000;
  status.end_pool = 480;
  status.completed = 4521;
  status.attainment = {{0, 100}, {1, 98}};
  status.period_alerts = 1;
  status.total_alerts = 3;
  EXPECT_EQ(obs::FormatStatusLine(status),
            "period   12 | pool 480/5000 | done 4521 | att C0:100% C1:98% "
            "| alerts +1/3");

  obs::PeriodStatus idle;
  idle.period = 1;
  EXPECT_EQ(obs::FormatStatusLine(idle),
            "period    1 | pool 0/0 | done 0 | att - | alerts +0/0");
}

// ---------------------------------------------------------------------------
// Synthetic event streams pin individual rules without a full experiment.

TraceEvent E(SimTime time, obs::ActorKind kind, std::uint32_t actor,
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

// Assigns the dense per-actor sequence numbers the recorder always emits;
// without them the watchdog's truncation check reads every repeat of an
// actor as a ring-wrap seq gap.
std::vector<TraceEvent> DenseSeqs(std::vector<TraceEvent> events) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> next;
  for (TraceEvent& event : events) {
    event.seq =
        next[{static_cast<std::uint32_t>(event.actor_kind), event.actor}]++;
  }
  return events;
}

TEST(SloWatchdogRules, LimitOvershootIsCriticalWhileTheFloorStaysQuiet) {
  const auto kMon = obs::ActorKind::kMonitor;
  const auto kHar = obs::ActorKind::kHarness;
  const std::vector<TraceEvent> events = {
      E(0, kHar, 0, EventType::kRunConfig, 0, 1000, 50, 1),
      // Harness traces must declare their measurement window before any
      // period counts as measured (real harnesses always emit this).
      E(0, kHar, 0, EventType::kMeasureStart, 0),
      // client 0: reservation 400, limit 300, demand 500
      E(0, kHar, 0, EventType::kClientSpec, 0, 400, 300, 500),
      E(0, kMon, 0, EventType::kMonitorPeriodStart, 1, 1000, 400, 600),
      E(500, kMon, 0, EventType::kReportSignal, 1),
      // completed 450: above the limit, but above the W1 floor (380) too.
      E(900, kMon, 0, EventType::kClientPeriodReport, 1, 0, 450, 0),
      E(1000, kMon, 0, EventType::kMonitorPeriodEnd, 1, 600, 450, 0),
  };
  const auto alerts = obs::ReplayTrace(DenseSeqs(events));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kLimitOvershoot);
  EXPECT_EQ(alerts[0].severity, AlertSeverity::kCritical);
  EXPECT_EQ(alerts[0].client, 0);
  EXPECT_EQ(alerts[0].expected, 300);
  EXPECT_EQ(alerts[0].observed, 450);
}

TEST(SloWatchdogRules, ConversionStallUnderIdleReservationsWarns) {
  const auto kMon = obs::ActorKind::kMonitor;
  const auto kEng = obs::ActorKind::kEngine;
  const auto kHar = obs::ActorKind::kHarness;
  const std::vector<TraceEvent> events = {
      E(0, kHar, 0, EventType::kRunConfig, 0, 1000, 50, 0),
      E(0, kMon, 0, EventType::kMonitorPeriodStart, 1, 1000, 900, 100),
      // Engines drain the pool and then starve...
      E(200, kMon, 0, EventType::kPoolSample, 1, 0),
      E(300, kEng, 1, EventType::kPoolEmpty, 1),
      // ...while a full FAA batch of reservation tokens sits idle...
      E(400, kEng, 2, EventType::kTokenDecay, 1, 60),
      // ...and every conversion still writes xi_global = 0.
      E(500, kMon, 0, EventType::kReportSignal, 1),
      E(600, kMon, 0, EventType::kTokenConvert, 1, 0, 0),
      E(1000, kMon, 0, EventType::kMonitorPeriodEnd, 1, 0, 0, 0),
  };
  const auto alerts = obs::ReplayTrace(DenseSeqs(events));
  ASSERT_EQ(CountKind(alerts, AlertKind::kConversionStall), 1u);
  const auto stall =
      std::find_if(alerts.begin(), alerts.end(), [](const Alert& a) {
        return a.kind == AlertKind::kConversionStall;
      });
  EXPECT_EQ(stall->severity, AlertSeverity::kWarning);
  EXPECT_EQ(stall->expected, 60);  // idle tokens surrendered to decay
}

TEST(SloWatchdogRules, CapacityEstimateOscillationTripsAfterFourFlips) {
  const auto kMon = obs::ActorKind::kMonitor;
  std::vector<TraceEvent> events;
  const std::int64_t estimates[] = {1000, 2000, 1000, 2000, 1000};
  for (std::size_t i = 0; i < std::size(estimates); ++i) {
    events.push_back(E(static_cast<SimTime>(1000 * (i + 1)), kMon, 0,
                       EventType::kCapacityEstimate,
                       static_cast<std::uint32_t>(i + 1), 0, estimates[i]));
  }
  const auto alerts = obs::ReplayTrace(DenseSeqs(events));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kCapacityOscillation);
  EXPECT_EQ(alerts[0].severity, AlertSeverity::kWarning);

  // A steadily-growing estimate (Algorithm 1's Grow phase) never alarms.
  std::vector<TraceEvent> steady;
  for (std::size_t i = 0; i < 8; ++i) {
    steady.push_back(E(static_cast<SimTime>(1000 * (i + 1)), kMon, 0,
                       EventType::kCapacityEstimate,
                       static_cast<std::uint32_t>(i + 1), 0,
                       static_cast<std::int64_t>(1000 + 100 * i)));
  }
  EXPECT_TRUE(obs::ReplayTrace(DenseSeqs(steady)).empty());
}

// ---------------------------------------------------------------------------
// End-to-end contracts (need the live tap, i.e. the watchdog compiled in).

#if HAECHI_WATCHDOG_ENABLED

/// Runs with the watchdog armed, returning the experiment for inspection.
std::unique_ptr<Experiment> RunWatched(ExperimentConfig config,
                                       double guarantee_fraction = 0.95) {
  config.trace.enabled = true;
  config.watchdog.enabled = true;
  config.watchdog.guarantee_fraction = guarantee_fraction;
  auto experiment = std::make_unique<Experiment>(std::move(config));
  experiment->Run();
  return experiment;
}

TEST(SloWatchdogEndToEnd, CleanFig09RunRaisesNoAlerts) {
  const auto experiment = RunWatched(Fig09Config());
  ASSERT_NE(experiment->watchdog(), nullptr);
  EXPECT_GE(experiment->watchdog()->periods_evaluated(), 6u);
  EXPECT_GT(experiment->watchdog()->guarantee_checks(), 0);
  EXPECT_TRUE(experiment->watchdog()->alerts().empty())
      << experiment->alerts_jsonl();
  EXPECT_TRUE(experiment->alerts_jsonl().empty());
}

TEST(SloWatchdogEndToEnd, SameSeedRunsProduceByteIdenticalAlertJsonl) {
  const auto first = RunWatched(FaultyChaosConfig(5), 0.9);
  const auto second = RunWatched(FaultyChaosConfig(5), 0.9);
  ASSERT_NE(first->watchdog(), nullptr);
  EXPECT_EQ(first->alerts_jsonl(), second->alerts_jsonl());
  EXPECT_EQ(first->watchdog()->alerts().size(),
            second->watchdog()->alerts().size());
}

TEST(SloWatchdogEndToEnd, LiveAlertsMatchReplayOfTheExportedTrace) {
  const auto experiment = RunWatched(FaultyChaosConfig(7), 0.9);
  ASSERT_NE(experiment->watchdog(), nullptr);
  obs::WatchdogOptions options;
  options.guarantee_fraction = 0.9;
  const auto replayed =
      obs::ReplayTrace(experiment->recorder()->Merged(), options);
  const auto& live = experiment->watchdog()->alerts();
  ASSERT_EQ(live.size(), replayed.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(obs::ToJsonl(live[i]), obs::ToJsonl(replayed[i]));
  }
}

TEST(SloWatchdogEndToEnd, ClusterLiveAlertsMatchReplayLineForLine) {
  // Four data nodes with adaptive borrowing (haechi_sim --cluster=4
  // --borrow=adaptive, scaled down). In Merged() order the t=0 period
  // starts of nodes 1-3 sort ahead of the harness cluster_config row, so
  // a watchdog that learns it is on a cluster only from that row mixes
  // their pools into node 0's and replays a W3 alert the live run never
  // raised. Pool state keyed by monitor node makes the order irrelevant.
  harness::ClusterExperimentConfig config;
  config.data_nodes = 4;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(1);
  config.measure_periods = 3;
  config.records = 256;
  config.qos.token_batch = 20;
  const auto cap = static_cast<std::int64_t>(
      config.net.GlobalCapacityIops() * ToSeconds(config.qos.period));
  config.cluster.borrow.policy = cluster::BorrowPolicy::kAdaptive;
  config.cluster.dry_watermark = config.qos.token_batch * 5;
  config.cluster.lender_floor = config.qos.token_batch * 10;
  config.cluster.borrow.quota = cap / 20;
  config.cluster.borrow.min_quota = config.qos.token_batch;
  config.cluster.borrow.max_quota = cap / 4;
  // Eight clients, reservations not divisible by the node count (so node
  // 0's split differs from the rest), each leaning 85% of its demand on a
  // home node so the splits and the loans have skew to chase.
  std::int64_t total = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    harness::ClusterClientSpec spec;
    spec.reservation = cap * static_cast<std::int64_t>(i + 4) / 120 + 1;
    const std::int64_t demand = spec.reservation + cap / 40;
    spec.demand_per_node.assign(4, (demand - demand * 85 / 100) / 3);
    spec.demand_per_node[i % 4] = demand * 85 / 100;
    total += spec.reservation;
    config.clients.push_back(spec);
  }
  config.tenants = {{total, 0}};
  config.trace.enabled = true;
  config.watchdog.enabled = true;
  harness::ClusterExperiment experiment(std::move(config));
  const auto result = experiment.Run();
  ASSERT_GT(result.borrow_granted, 0);
  ASSERT_NE(experiment.watchdog(), nullptr);

  std::string replayed;
  for (const Alert& alert :
       obs::ReplayTrace(experiment.recorder()->Merged())) {
    replayed += obs::ToJsonl(alert) + "\n";
  }
  EXPECT_EQ(replayed, experiment.alerts_jsonl());
  // The per-node ledger holds on every node, live and offline.
  EXPECT_EQ(CountKind(experiment.watchdog()->alerts(),
                      AlertKind::kPoolConservation),
            0u);
}

TEST(SloWatchdogEndToEnd, AgreesWithAuditOnTheHealthyFig10Underload) {
  const auto experiment = RunWatched(Fig10Config());
  ASSERT_NE(experiment->watchdog(), nullptr);
  const obs::AuditReport report =
      obs::AuditTrace(experiment->recorder()->Merged());
  // Offline says every identity holds; online must agree — and the shared
  // A9/W1 geometry must have evaluated the same (client, period) pairs.
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(experiment->watchdog()->CountAtLeast(AlertSeverity::kCritical),
            0u)
      << experiment->alerts_jsonl();
  EXPECT_EQ(experiment->watchdog()->guarantee_checks(),
            report.guarantee_checks);
}

TEST(SloWatchdogEndToEnd, AgreesWithAuditUnderCrashChaosWithoutFalseAlarms) {
  const auto experiment = RunWatched(CrashChaosConfig(5), 0.9);
  ASSERT_NE(experiment->watchdog(), nullptr);
  obs::AuditOptions options;
  options.guarantee_fraction = 0.9;  // survivors' bar under a mid-run crash
  const obs::AuditReport report =
      obs::AuditTrace(experiment->recorder()->Merged(), options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // The crash is scripted: the watchdog must apply the auditor's crash
  // exclusions rather than alarming on the injected fault.
  EXPECT_EQ(experiment->watchdog()->CountAtLeast(AlertSeverity::kCritical),
            0u)
      << experiment->alerts_jsonl();
}

TEST(SloWatchdogEndToEnd, AgreesWithAuditUnderControlPlaneChaos) {
  const auto experiment = RunWatched(FaultyChaosConfig(1), 0.85);
  ASSERT_NE(experiment->watchdog(), nullptr);
  obs::AuditOptions options;
  options.guarantee_fraction = 0.85;  // lossy control plane
  const obs::AuditReport report =
      obs::AuditTrace(experiment->recorder()->Merged(), options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(experiment->watchdog()->CountAtLeast(AlertSeverity::kCritical),
            0u)
      << experiment->alerts_jsonl();
}

TEST(SloWatchdogEndToEnd, StatusCallbackFiresEveryNthPeriod) {
  ExperimentConfig config = Fig09Config();
  config.watchdog.status_interval = 2;
  std::vector<obs::PeriodStatus> seen;
  config.watchdog.status_fn = [&seen](const obs::PeriodStatus& status) {
    seen.push_back(status);
  };
  Experiment experiment(std::move(config));
  experiment.Run();
  ASSERT_NE(experiment.watchdog(), nullptr);
  EXPECT_EQ(seen.size(), experiment.watchdog()->periods_evaluated() / 2);
  ASSERT_FALSE(seen.empty());
  EXPECT_GT(seen.back().capacity, 0);
  EXPECT_EQ(seen.back().attainment.size(), 10u);
  EXPECT_EQ(seen.back().total_alerts, 0u);
}

TEST(SloWatchdogEndToEnd, UnrequestedWatchdogStaysNull) {
  ExperimentConfig config = Fig09Config();
  Experiment experiment(std::move(config));
  experiment.Run();
  EXPECT_EQ(experiment.watchdog(), nullptr);
  EXPECT_TRUE(experiment.alerts_jsonl().empty());
}

// ---------------------------------------------------------------------------
// Tampered traces: the online replay and the offline audit must convict
// the same corruption.

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

std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

std::string WithField(const std::string& line, std::size_t index,
                      const std::string& value) {
  auto fields = Fields(line);
  fields.at(index) = value;
  std::string out = fields[0];
  for (std::size_t i = 1; i < fields.size(); ++i) out += "," + fields[i];
  return out;
}

class SloTamper : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = Fig10Config();
    config.measure_periods = 4;
    config.trace.enabled = true;
    Experiment experiment(std::move(config));
    experiment.Run();
    csv_ =
        new std::string(obs::ToCsvString(experiment.recorder()->Merged()));
  }
  static void TearDownTestSuite() {
    delete csv_;
    csv_ = nullptr;
  }

  /// (audit report, watchdog replay alerts) over the same tampered text.
  static std::pair<obs::AuditReport, std::vector<Alert>> Judge(
      const std::string& text) {
    auto parsed = obs::ParseCsvTrace(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return {obs::AuditTrace(parsed.value()),
            obs::ReplayTrace(parsed.value())};
  }

  static std::string* csv_;
};

std::string* SloTamper::csv_ = nullptr;

// CSV layout: time_ns,kind,actor,seq,type,period,a,b,c

TEST_F(SloTamper, UntamperedTraceConvictsNothing) {
  const auto [report, alerts] = Judge(*csv_);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(alerts.empty());
}

TEST_F(SloTamper, ForgedInitialPoolConvictedByBothWitnesses) {
  auto lines = SplitLines(*csv_);
  std::size_t victim = lines.size();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].find(",period_start,") != std::string::npos) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, lines.size());
  lines[victim] = WithField(lines[victim], 8, "999999999");  // c=initial
  const auto [report, alerts] = Judge(JoinLines(lines));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(obs::FirstFailedCheck(report), 2) << report.Summary();
  EXPECT_GE(CountKind(alerts, AlertKind::kPoolConservation), 1u);
}

TEST_F(SloTamper, InflatedPoolSampleConvictedByBothWitnesses) {
  auto lines = SplitLines(*csv_);
  std::size_t victim = lines.size();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].find(",pool_sample,") != std::string::npos) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, lines.size());
  lines[victim] = WithField(lines[victim], 6, "888888888");  // a=raw pool
  const auto [report, alerts] = Judge(JoinLines(lines));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(obs::FirstFailedCheck(report), 3) << report.Summary();
  EXPECT_GE(CountKind(alerts, AlertKind::kPoolConservation), 1u);
}

TEST_F(SloTamper, ErasedClientReportConvictedAsShortfallByBothWitnesses) {
  // Pick a hungry client's calibration report in a *measured* period (the
  // A9/W1 geometry: start >= measure_start and start + T <= measure_end),
  // then zero its completed count — forging a reservation miss.
  auto parsed = obs::ParseCsvTrace(*csv_);
  ASSERT_TRUE(parsed.ok());
  SimTime measure_start = -1;
  SimTime measure_end = -1;
  SimDuration period_len = 0;
  std::map<std::uint32_t, SimTime> period_starts;
  for (const TraceEvent& e : parsed.value()) {
    if (e.type == EventType::kMeasureStart) measure_start = e.time;
    if (e.type == EventType::kMeasureEnd) measure_end = e.time;
    if (e.type == EventType::kRunConfig) period_len = e.a;
    if (e.type == EventType::kMonitorPeriodStart) {
      period_starts[e.period] = e.time;
    }
  }
  ASSERT_GT(period_len, 0);
  ASSERT_GE(measure_start, 0);
  ASSERT_GT(measure_end, measure_start);
  const std::uint32_t hungry_client = 5;  // demand = reservation + pool
  std::uint32_t victim_period = 0;
  for (const TraceEvent& e : parsed.value()) {
    if (e.type != EventType::kClientPeriodReport) continue;
    if (e.a != hungry_client || e.b <= 0) continue;
    const auto start = period_starts.find(e.period);
    if (start == period_starts.end()) continue;
    if (start->second >= measure_start &&
        start->second + period_len <= measure_end) {
      victim_period = e.period;
      break;
    }
  }
  ASSERT_GT(victim_period, 0u);

  auto lines = SplitLines(*csv_);
  std::size_t victim = lines.size();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto fields = Fields(lines[i]);
    if (fields.size() == 9 && fields[4] == "client_period_report" &&
        fields[5] == std::to_string(victim_period) &&
        fields[6] == std::to_string(hungry_client)) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, lines.size());
  lines[victim] = WithField(lines[victim], 7, "0");  // b = completed

  const auto [report, alerts] = Judge(JoinLines(lines));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(obs::FirstFailedCheck(report), 9) << report.Summary();
  ASSERT_EQ(CountKind(alerts, AlertKind::kReservationShortfall), 1u);
  const auto shortfall =
      std::find_if(alerts.begin(), alerts.end(), [](const Alert& a) {
        return a.kind == AlertKind::kReservationShortfall;
      });
  EXPECT_EQ(shortfall->client, hungry_client);
  EXPECT_EQ(shortfall->period, victim_period);
  EXPECT_EQ(shortfall->observed, 0);
  EXPECT_EQ(shortfall->severity, AlertSeverity::kCritical);
}

#else  // !HAECHI_WATCHDOG_ENABLED

TEST(SloWatchdogEndToEnd, CompiledOutBuildNeverArmsTheWatchdog) {
  ExperimentConfig config = Fig09Config();
  config.watchdog.enabled = true;
  config.watchdog.status_interval = 2;
  Experiment experiment(std::move(config));
  experiment.Run();
  EXPECT_EQ(experiment.watchdog(), nullptr);
  EXPECT_TRUE(experiment.alerts_jsonl().empty());
}

#endif  // HAECHI_WATCHDOG_ENABLED

}  // namespace
}  // namespace haechi
