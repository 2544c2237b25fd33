// Flight recorder, metrics registry and exporter tests: ring semantics
// (dense seqs, wrap-with-drop-count), deterministic merge order, macro
// argument elision, CSV round-trip and corruption rejection, Perfetto
// rendering sanity, metrics snapshots — and the headline determinism
// property: two experiments with identical seeds and fault plans export
// byte-identical traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/runtime_experiment.hpp"
#include "obs/alerts.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

using obs::ActorKind;
using obs::EventType;
using obs::Recorder;
using obs::TraceEvent;

Recorder::Options SmallRing(std::size_t capacity) {
  Recorder::Options options;
  options.ring_capacity = capacity;
  return options;
}

// ---------------------------------------------------------------------------
// Recorder unit tests.

TEST(Recorder, AssignsDenseSequencesAndStampsSimTime) {
  sim::Simulator sim;
  Recorder recorder(sim);
  sim.ScheduleAt(10, [&] {
    recorder.Emit(ActorKind::kEngine, 3, EventType::kTokenFetch, 1, 100);
  });
  sim.ScheduleAt(25, [&] {
    recorder.Emit(ActorKind::kEngine, 3, EventType::kTokenFetchDone, 1, 900,
                  100);
  });
  sim.Run();

  const auto events = recorder.ActorEvents(ActorKind::kEngine, 3);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 10);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].type, EventType::kTokenFetch);
  EXPECT_EQ(events[0].actor, 3u);
  EXPECT_EQ(events[0].a, 100);
  EXPECT_EQ(events[1].time, 25);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].b, 100);
  EXPECT_EQ(recorder.TotalEmitted(), 2u);
  EXPECT_EQ(recorder.TotalDropped(), 0u);
}

TEST(Recorder, RingWrapKeepsNewestEventsAndCountsDrops) {
  sim::Simulator sim;
  Recorder recorder(sim, SmallRing(4));
  for (std::int64_t i = 0; i < 10; ++i) {
    recorder.Emit(ActorKind::kMonitor, 0, EventType::kPoolSample, 1, i);
  }
  const auto events = recorder.ActorEvents(ActorKind::kMonitor, 0);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);  // oldest first, newest retained
    EXPECT_EQ(events[i].a, static_cast<std::int64_t>(6 + i));
  }
  EXPECT_EQ(recorder.TotalEmitted(), 10u);
  EXPECT_EQ(recorder.TotalDropped(), 6u);
}

TEST(Recorder, DropNotifyFiresExactlyOnceOnTheFirstWrap) {
  // Regression for silent ring truncation: the first overwriting append
  // must invoke the notify callback, and later drops (same ring or a
  // sibling actor's) must not re-fire it.
  sim::Simulator sim;
  Recorder recorder(sim, SmallRing(4));
  int notified = 0;
  recorder.SetDropNotify([&] { ++notified; });
  for (std::int64_t i = 0; i < 4; ++i) {
    recorder.Emit(ActorKind::kMonitor, 0, EventType::kPoolSample, 1, i);
  }
  EXPECT_EQ(notified, 0);  // ring exactly full, nothing dropped yet
  recorder.Emit(ActorKind::kMonitor, 0, EventType::kPoolSample, 1, 4);
  EXPECT_EQ(notified, 1);
  for (std::int64_t i = 0; i < 6; ++i) {
    recorder.Emit(ActorKind::kMonitor, 0, EventType::kPoolSample, 1, 5 + i);
    recorder.Emit(ActorKind::kEngine, 2, EventType::kTokenFetch, 1, i);
  }
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(recorder.TotalDropped(), 7u + 2u);  // monitor 7, engine 2
}

TEST(Recorder, MergedOrdersByTimeThenKindThenActorThenSeq) {
  sim::Simulator sim;
  Recorder recorder(sim);
  sim.ScheduleAt(5, [&] {
    // Same timestamp, different kinds/actors — emitted out of order.
    recorder.Emit(ActorKind::kFabric, 2, EventType::kOpDropped, 0);
    recorder.Emit(ActorKind::kMonitor, 0, EventType::kPoolSample, 1);
    recorder.Emit(ActorKind::kEngine, 1, EventType::kTokenFetch, 1);
    recorder.Emit(ActorKind::kEngine, 0, EventType::kTokenFetch, 1);
  });
  sim.ScheduleAt(2, [&] {
    recorder.Emit(ActorKind::kHarness, 0, EventType::kMeasureStart, 0);
  });
  sim.Run();

  const auto merged = recorder.Merged();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].type, EventType::kMeasureStart);  // earliest time
  EXPECT_EQ(merged[1].actor_kind, ActorKind::kMonitor);
  EXPECT_EQ(merged[2].actor_kind, ActorKind::kEngine);
  EXPECT_EQ(merged[2].actor, 0u);  // engine 0 before engine 1
  EXPECT_EQ(merged[3].actor, 1u);
  EXPECT_EQ(merged[4].actor_kind, ActorKind::kFabric);
}

/// The order Merged() promises, computed the slow way: every actor's
/// retained events concatenated, then one global sort.
std::vector<TraceEvent> ReferenceMerge(const Recorder& recorder) {
  std::vector<TraceEvent> all;
  for (std::size_t k = 0; k < obs::kActorKinds; ++k) {
    const auto kind = static_cast<ActorKind>(k);
    recorder.ForEachActor(kind, [&](std::uint32_t actor, obs::RingSegments) {
      const std::vector<TraceEvent> events = recorder.ActorEvents(kind, actor);
      all.insert(all.end(), events.begin(), events.end());
    });
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return std::tie(x.time, x.actor_kind, x.actor, x.seq) <
                     std::tie(y.time, y.actor_kind, y.actor, y.seq);
            });
  return all;
}

void ExpectMergedMatchesReference(const Recorder& recorder) {
  const std::vector<TraceEvent> merged = recorder.Merged();
  const std::vector<TraceEvent> reference = ReferenceMerge(recorder);
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(std::memcmp(&merged[i], &reference[i], sizeof(TraceEvent)), 0)
        << "first difference at event " << i << " of " << merged.size();
  }
}

TEST(Recorder, MergedFallsBackToSortingARingWithAnOutOfOrderStamp) {
  Recorder recorder([] { return SimTime{0}; }, SmallRing(4));
  // Two writers share the harness ring: the second stamps earlier.
  recorder.EmitAt(30, ActorKind::kHarness, 0, EventType::kMeasureStart, 0);
  recorder.EmitAt(20, ActorKind::kHarness, 0, EventType::kClientCrash, 0);
  recorder.EmitAt(40, ActorKind::kHarness, 0, EventType::kMeasureEnd, 0);
  // A wrapped, ordered ring and a single-event ring tie on timestamps.
  for (SimTime t = 10; t <= 60; t += 10) {
    recorder.EmitAt(t, ActorKind::kEngine, 2, EventType::kTokenFetch, 1);
  }
  recorder.EmitAt(20, ActorKind::kMonitor, 0, EventType::kPoolSample, 1);

  const std::vector<TraceEvent> merged = recorder.Merged();
  ASSERT_EQ(merged.size(), 3u + 4u + 1u);  // engine kept its newest 4
  EXPECT_EQ(merged[0].actor_kind, ActorKind::kMonitor);    // t=20, kind 0
  EXPECT_EQ(merged[1].type, EventType::kClientCrash);      // t=20, seq 1
  EXPECT_EQ(merged[2].actor_kind, ActorKind::kEngine);     // t=30, kind 1
  EXPECT_EQ(merged[3].type, EventType::kMeasureStart);     // t=30, seq 0
  EXPECT_EQ(merged[4].time, 40);
  ExpectMergedMatchesReference(recorder);
}

TEST(Recorder, MacroArgumentsAreNotEvaluatedWithoutAnActiveRecorder) {
  int evaluated = 0;
  // No recorder installed: the macro's payload expressions must not run.
  HAECHI_TRACE_EVENT(ActorKind::kEngine, 0, EventType::kTokenFetch, 0,
                     ++evaluated);
  EXPECT_EQ(evaluated, 0);

#if HAECHI_TRACE_ENABLED
  sim::Simulator sim;
  Recorder recorder(sim);
  obs::ScopedRecorder scope(&recorder);
  HAECHI_TRACE_EVENT(ActorKind::kEngine, 0, EventType::kTokenFetch, 0,
                     ++evaluated);
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(recorder.TotalEmitted(), 1u);
  // Detail events stay off unless the recorder opted in.
  HAECHI_TRACE_DETAIL(ActorKind::kKv, 0, EventType::kKvIssue, 0, ++evaluated);
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(recorder.TotalEmitted(), 1u);
#endif
}

TEST(Recorder, ScopedRecorderRestoresThePreviousRecorder) {
  EXPECT_EQ(obs::ActiveRecorder(), nullptr);
  sim::Simulator sim;
  Recorder outer(sim);
  {
    obs::ScopedRecorder outer_scope(&outer);
    EXPECT_EQ(obs::ActiveRecorder(), &outer);
    Recorder inner(sim);
    {
      obs::ScopedRecorder inner_scope(&inner);
      EXPECT_EQ(obs::ActiveRecorder(), &inner);
    }
    EXPECT_EQ(obs::ActiveRecorder(), &outer);
  }
  EXPECT_EQ(obs::ActiveRecorder(), nullptr);
}

TEST(Recorder, EventNamesRoundTripThroughTheWireTable) {
  for (const EventType type :
       {EventType::kMonitorPeriodStart, EventType::kTokenConvert,
        EventType::kCapacityEstimate, EventType::kLeaseExpire,
        EventType::kTokenFetchDone, EventType::kReportWrite,
        EventType::kOpDuplicated, EventType::kKvComplete,
        EventType::kClientRestart}) {
    EventType parsed{};
    ASSERT_TRUE(obs::EventTypeFromName(obs::ToString(type), parsed))
        << obs::ToString(type);
    EXPECT_EQ(parsed, type);
  }
  EventType ignored{};
  EXPECT_FALSE(obs::EventTypeFromName("not_an_event", ignored));
  obs::ActorKind kind{};
  ASSERT_TRUE(obs::ActorKindFromName("engine", kind));
  EXPECT_EQ(kind, ActorKind::kEngine);
  EXPECT_FALSE(obs::ActorKindFromName("gpu", kind));
}

// ---------------------------------------------------------------------------
// Exporters.

std::vector<TraceEvent> SampleEvents() {
  sim::Simulator sim;
  Recorder recorder(sim);
  sim.ScheduleAt(1'000'000, [&] {
    recorder.Emit(ActorKind::kMonitor, 0, EventType::kMonitorPeriodStart, 1,
                  5000, 4500, 500);
    recorder.Emit(ActorKind::kEngine, 0, EventType::kEnginePeriodStart, 1, 450,
                  0);
  });
  sim.ScheduleAt(1'500'000, [&] {
    recorder.Emit(ActorKind::kMonitor, 0, EventType::kPoolSample, 1, 420);
    recorder.Emit(ActorKind::kMonitor, 0, EventType::kTokenConvert, 1, 420,
                  900, 4000);
    recorder.Emit(ActorKind::kMonitor, 0, EventType::kCapacityEstimate, 1,
                  4800, 5100, 1);
    recorder.Emit(ActorKind::kEngine, 0, EventType::kTokenFetchDone, 1, -17,
                  100);
  });
  sim.Run();
  return recorder.Merged();
}

TEST(TraceExport, CsvRoundTripsEveryField) {
  const auto events = SampleEvents();
  const std::string csv = obs::ToCsvString(events);
  const auto parsed = obs::ParseCsvTrace(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed.value()[i].time, events[i].time);
    EXPECT_EQ(parsed.value()[i].seq, events[i].seq);
    EXPECT_EQ(parsed.value()[i].type, events[i].type);
    EXPECT_EQ(parsed.value()[i].actor_kind, events[i].actor_kind);
    EXPECT_EQ(parsed.value()[i].actor, events[i].actor);
    EXPECT_EQ(parsed.value()[i].period, events[i].period);
    EXPECT_EQ(parsed.value()[i].a, events[i].a);
    EXPECT_EQ(parsed.value()[i].b, events[i].b);
    EXPECT_EQ(parsed.value()[i].c, events[i].c);
  }
}

TEST(TraceExport, CsvParserRejectsCorruption) {
  const std::string csv = obs::ToCsvString(SampleEvents());

  EXPECT_FALSE(obs::ParseCsvTrace("nonsense header\n1,2,3\n").ok());

  // Wrong field count.
  std::string missing_field = csv;
  missing_field += "12345,monitor,0,99,pool_sample,1,7\n";
  EXPECT_FALSE(obs::ParseCsvTrace(missing_field).ok());

  // Unknown event name.
  std::string bad_name = csv;
  const auto pos = bad_name.find("pool_sample");
  ASSERT_NE(pos, std::string::npos);
  bad_name.replace(pos, 11, "pool_oracle");
  EXPECT_FALSE(obs::ParseCsvTrace(bad_name).ok());

  // Non-numeric payload.
  std::string bad_number = csv;
  bad_number += "12345,monitor,0,99,pool_sample,1,x,0,0\n";
  EXPECT_FALSE(obs::ParseCsvTrace(bad_number).ok());
}

TEST(TraceExport, PerfettoRenderingHasCounterTracksAndInstants) {
  const std::string json = obs::ToPerfettoString(SampleEvents());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  // The pool sample becomes a counter track, not an instant.
  EXPECT_NE(json.find("global_pool"), std::string::npos);
  EXPECT_NE(json.find("capacity_estimate"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(json.find("\"pool_sample\""), std::string::npos);
}

// Cluster traces carry coordinator (kCluster) and harness C-records; both
// exporters must round-trip them like any other event (satellite of the
// cluster metrics rollup — the offline tooling reads these streams).
std::vector<TraceEvent> SampleClusterEvents() {
  sim::Simulator sim;
  Recorder recorder(sim);
  sim.ScheduleAt(500'000, [&] {
    recorder.Emit(ActorKind::kHarness, 0, EventType::kClusterConfig, 0, 2, 1,
                  2);
    recorder.Emit(ActorKind::kHarness, 0, EventType::kNodeCapacity, 0, 0,
                  10000, 5000);
    recorder.Emit(ActorKind::kHarness, 3, EventType::kEngineBinding, 0, 1, 1,
                  0);
  });
  sim.ScheduleAt(1'200'000, [&] {
    recorder.Emit(ActorKind::kCluster, 0, EventType::kBorrowRequest, 2, 1,
                  400, 500);
    recorder.Emit(ActorKind::kCluster, 0, EventType::kBorrowGrant, 2, 0, 400,
                  1);
    recorder.Emit(ActorKind::kCluster, 0, EventType::kClusterStaleReport, 2,
                  1, 3, 2);
    recorder.Emit(ActorKind::kCluster, 0, EventType::kClusterRebalance, 2, 3,
                  250, 0);
  });
  sim.ScheduleAt(1'900'000, [&] {
    recorder.Emit(ActorKind::kCluster, 0, EventType::kBorrowRepay, 3, 1, 400,
                  0);
  });
  sim.Run();
  return recorder.Merged();
}

TEST(TraceExport, ClusterEventsRoundTripThroughCsv) {
  const auto events = SampleClusterEvents();
  ASSERT_EQ(events.size(), 8u);
  const auto parsed = obs::ParseCsvTrace(obs::ToCsvString(events));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed.value()[i].type, events[i].type);
    EXPECT_EQ(parsed.value()[i].actor_kind, events[i].actor_kind);
    EXPECT_EQ(parsed.value()[i].a, events[i].a);
    EXPECT_EQ(parsed.value()[i].b, events[i].b);
    EXPECT_EQ(parsed.value()[i].c, events[i].c);
  }
}

TEST(TraceExport, ClusterEventsRenderAsPerfettoInstantsOnTheClusterTrack) {
  const std::string json = obs::ToPerfettoString(SampleClusterEvents());
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);  // process name
  for (const char* name :
       {"borrow_request", "borrow_grant", "borrow_repay",
        "cluster_stale_report", "cluster_rebalance", "cluster_config",
        "node_capacity", "engine_binding"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

#if HAECHI_WATCHDOG_ENABLED

TraceEvent MonitorEvent(SimTime time, std::uint64_t seq, EventType type) {
  TraceEvent event;
  event.time = time;
  event.seq = seq;
  event.type = type;
  event.actor_kind = ActorKind::kMonitor;
  event.actor = 0;
  event.period = 1;
  return event;
}

std::size_t TruncationAlerts(const obs::SloWatchdog& watchdog) {
  std::size_t n = 0;
  for (const obs::Alert& alert : watchdog.alerts()) {
    n += alert.kind == obs::AlertKind::kTraceTruncation;
  }
  return n;
}

TEST(Watchdog, ReplaySeqGapRaisesOneTruncationAlert) {
  // Regression for silent truncation on the replay path: a wrapped ring
  // leaves a hole in an actor's seq sequence; the watchdog must flag the
  // trace as incomplete — once, no matter how many actors are truncated.
  obs::SloWatchdog watchdog;
  watchdog.OnEvent(MonitorEvent(100, 0, EventType::kPoolSample));
  watchdog.OnEvent(MonitorEvent(200, 1, EventType::kPoolSample));
  EXPECT_EQ(TruncationAlerts(watchdog), 0u);
  watchdog.OnEvent(MonitorEvent(300, 5, EventType::kPoolSample));  // gap
  EXPECT_EQ(TruncationAlerts(watchdog), 1u);
  watchdog.OnEvent(MonitorEvent(400, 9, EventType::kPoolSample));  // again
  EXPECT_EQ(TruncationAlerts(watchdog), 1u);
  EXPECT_TRUE(watchdog.Finish().ok());
}

TEST(Watchdog, LiveDropNotifySharesTheTruncationLatchWithReplay) {
  obs::SloWatchdog watchdog;
  watchdog.NotifyTruncation(1000);
  watchdog.NotifyTruncation(2000);
  EXPECT_EQ(TruncationAlerts(watchdog), 1u);
  // A later replay-side seq gap must not double-report the same run.
  watchdog.OnEvent(MonitorEvent(3000, 7, EventType::kPoolSample));
  EXPECT_EQ(TruncationAlerts(watchdog), 1u);
}

#endif  // HAECHI_WATCHDOG_ENABLED

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CountersGaugesAndSnapshotsTrackDeltas) {
  obs::MetricsRegistry metrics;
  metrics.Add("engine.faa_ops", 10);
  metrics.Set("monitor.capacity_estimate", 5000.0);
  metrics.Record("monitor.period_completions", 4500);
  metrics.SnapshotPeriod(1);
  metrics.Add("engine.faa_ops", 7);
  metrics.Set("monitor.capacity_estimate", 5100.0);
  metrics.SnapshotPeriod(2);

  EXPECT_EQ(metrics.CounterValue("engine.faa_ops"), 17);
  EXPECT_EQ(metrics.GaugeValue("monitor.capacity_estimate"), 5100.0);
  EXPECT_TRUE(metrics.Has("monitor.period_completions"));
  EXPECT_FALSE(metrics.Has("nope"));

  double period2_delta = -1.0;
  for (const auto& row : metrics.snapshots()) {
    if (row.period == 2 && row.name == "engine.faa_ops") {
      EXPECT_EQ(row.value, 17.0);
      period2_delta = row.delta;
    }
  }
  EXPECT_EQ(period2_delta, 7.0);

  const std::string csv = metrics.ToCsv().Render();
  EXPECT_NE(csv.find("period,name,kind,value,delta"), std::string::npos);
  EXPECT_NE(csv.find("engine.faa_ops"), std::string::npos);
  EXPECT_NE(csv.find("histogram_p50"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: identical seeds + fault plans => byte-identical exports.

harness::ExperimentConfig TracedChaosConfig(std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(1);
  config.measure_periods = 3;
  config.records = 256;
  config.qos.token_batch = 100;
  config.qos.report_lease_intervals = 8;
  config.seed = seed;
  const auto cap =
      static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  for (const auto r : workload::UniformShare(cap * 6 / 10, 4)) {
    harness::ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + cap / 5;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  rdma::FaultRule drop_faa;
  drop_faa.action = rdma::FaultAction::kDrop;
  drop_faa.opcode = rdma::Opcode::kFetchAdd;
  drop_faa.probability = 0.05;
  config.faults.seed = seed * 7919 + 1;
  config.faults.Add(drop_faa);
  harness::ExperimentConfig::ClientFault fault;
  fault.client = 1;
  fault.crash_at = Seconds(2) + Millis(300);
  fault.restart_at = Seconds(3) + Millis(100);
  config.client_faults.push_back(fault);
  config.trace.enabled = true;
  return config;
}

TEST(TraceDeterminism, IdenticalRunsExportByteIdenticalTraces) {
  harness::Experiment first(TracedChaosConfig(11));
  first.Run();
  harness::Experiment second(TracedChaosConfig(11));
  second.Run();
  ASSERT_NE(first.recorder(), nullptr);
  ASSERT_NE(second.recorder(), nullptr);
#if HAECHI_TRACE_ENABLED
  EXPECT_GT(first.recorder()->TotalEmitted(), 0u);
#endif
  EXPECT_EQ(first.recorder()->TotalEmitted(), second.recorder()->TotalEmitted());
  const std::string csv_a = obs::ToCsvString(first.recorder()->Merged());
  const std::string csv_b = obs::ToCsvString(second.recorder()->Merged());
  EXPECT_EQ(csv_a, csv_b);
  EXPECT_EQ(obs::ToPerfettoString(first.recorder()->Merged()),
            obs::ToPerfettoString(second.recorder()->Merged()));
}

TEST(TraceDeterminism, ExportedFileRoundTripsThroughTheFilesystem) {
  const std::string path = testing::TempDir() + "haechi_trace_roundtrip.csv";
  harness::ExperimentConfig config = TracedChaosConfig(3);
  config.client_faults.clear();
  config.faults = rdma::FaultPlan{};
  config.measure_periods = 2;
  config.trace.out_path = path;
  harness::Experiment experiment(std::move(config));
  experiment.Run();
  ASSERT_NE(experiment.recorder(), nullptr);

  const auto text = obs::ReadFileToString(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const auto parsed = obs::ParseCsvTrace(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().size(), experiment.recorder()->Merged().size());
  std::remove(path.c_str());
}

TEST(Recorder, MergedMatchesAGlobalSortOnASimRun) {
  harness::ExperimentConfig config = TracedChaosConfig(5);
  config.measure_periods = 2;
  config.trace.detail = true;
  config.trace.ring_capacity = 5000;  // wrap: rings split in two segments
  harness::Experiment experiment(std::move(config));
  experiment.Run();
  ASSERT_NE(experiment.recorder(), nullptr);
#if HAECHI_TRACE_ENABLED
  EXPECT_GT(experiment.recorder()->TotalDropped(), 0u);
#endif
  ExpectMergedMatchesReference(*experiment.recorder());
}

TEST(Recorder, MergedMatchesAGlobalSortOnAThreadedRun) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.qos.period = Millis(100);
  config.qos.token_batch = 50;
  config.profiled_global_iops = 100000;
  config.profiled_local_iops = 60000;
  config.records = 256;
  config.warmup = Millis(100);
  config.measure_periods = 2;
  config.runtime_workers = 2;
  for (const std::int64_t r : {3000, 2000}) {
    harness::ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + 1000;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  config.trace.enabled = true;
  config.trace.detail = true;
  config.trace.ring_capacity = 1u << 18;
  harness::ThreadedExperiment experiment(std::move(config));
  experiment.Run();
  ASSERT_NE(experiment.recorder(), nullptr);
  ExpectMergedMatchesReference(*experiment.recorder());
}

}  // namespace
}  // namespace haechi
