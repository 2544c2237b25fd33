// Span pipeline tests: hand-computed stage attribution on canonical event
// sequences, truncation accounting, the SpanProfile percentile table's
// determinism (the `haechi_audit --spans` contract: same seed => byte
// identical tables), the per-period span histograms in the metrics
// registry, and the structural agreement between the simulated and the
// concurrent threaded runtime (both produce the same five-stage spans with
// the same internal identities). Under HAECHI_TRACE=OFF only the stub
// contract is checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/runtime_experiment.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

using obs::ActorKind;
using obs::EventType;
using obs::IoSpan;
using obs::SpanStage;
using obs::TraceEvent;

std::int64_t Stage(const IoSpan& span, SpanStage stage) {
  return span.stage_ns[static_cast<std::size_t>(stage)];
}

#if HAECHI_TRACE_ENABLED

/// Builds engine events in emission order with dense seqs.
class EventBuilder {
 public:
  void Emit(SimTime t, std::uint32_t actor, EventType type, std::int64_t a = 0,
            std::int64_t b = 0, std::int64_t c = 0) {
    TraceEvent event;
    event.time = t;
    event.seq = seq_++;
    event.type = type;
    event.actor_kind = ActorKind::kEngine;
    event.actor = actor;
    event.period = 1;
    event.a = a;
    event.b = b;
    event.c = c;
    events_.push_back(event);
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t seq_ = 0;
};

TEST(SpanAssembler, AttributesFetchQueueAndServiceOnACanonicalQuintet) {
  EventBuilder b;
  b.Emit(100, 0, EventType::kIoQueued, 7, 1);
  b.Emit(150, 0, EventType::kTokenFetch, 50);
  b.Emit(250, 0, EventType::kTokenFetchDone, 900, 50);
  b.Emit(300, 0, EventType::kIoIssue, 7, 1, 0);
  b.Emit(900, 0, EventType::kIoComplete, 7, 0);

  obs::SpanAssemblyStats stats;
  const std::vector<IoSpan> spans = obs::AssembleSpans(b.events(), &stats);
  ASSERT_EQ(stats.spans, 1u);
  EXPECT_EQ(stats.orphan_events, 0u);
  const IoSpan& span = spans.front();
  EXPECT_EQ(span.engine, 0u);
  EXPECT_EQ(span.io_id, 7u);
  EXPECT_EQ(span.period, 1u);
  EXPECT_EQ(span.token_source, 1);
  EXPECT_EQ(span.queued_at, 100);
  EXPECT_EQ(span.issued_at, 300);
  EXPECT_EQ(span.completed_at, 900);
  EXPECT_EQ(Stage(span, SpanStage::kAdmit), 0);
  EXPECT_EQ(Stage(span, SpanStage::kTokenFetch), 100);  // 150..250
  EXPECT_EQ(Stage(span, SpanStage::kConvertWait), 0);
  EXPECT_EQ(Stage(span, SpanStage::kQueue), 100);  // 200 elapsed - 100 fetch
  EXPECT_EQ(Stage(span, SpanStage::kNicService), 600);
  EXPECT_EQ(span.Total(), span.completed_at - span.queued_at);
}

TEST(SpanAssembler, PoolEmptyOpensConvertWaitUntilThePeriodBoundary) {
  EventBuilder b;
  b.Emit(100, 3, EventType::kIoQueued, 0, 1);
  b.Emit(120, 3, EventType::kTokenFetch, 50);
  b.Emit(180, 3, EventType::kPoolEmpty);           // fetch 60, wait opens
  b.Emit(380, 3, EventType::kEnginePeriodStart);   // wait closes at 200
  b.Emit(400, 3, EventType::kTokenFetch, 50);
  b.Emit(450, 3, EventType::kTokenFetchDone, 900, 50);  // fetch 60+50
  b.Emit(500, 3, EventType::kIoIssue, 0, 0, 0);
  b.Emit(600, 3, EventType::kIoComplete, 0, 0);

  obs::SpanAssemblyStats stats;
  const std::vector<IoSpan> spans = obs::AssembleSpans(b.events(), &stats);
  ASSERT_EQ(stats.spans, 1u);
  const IoSpan& span = spans.front();
  EXPECT_EQ(span.token_source, 0);
  EXPECT_EQ(Stage(span, SpanStage::kTokenFetch), 110);
  EXPECT_EQ(Stage(span, SpanStage::kConvertWait), 200);
  EXPECT_EQ(Stage(span, SpanStage::kQueue), 400 - 110 - 200);
  EXPECT_EQ(Stage(span, SpanStage::kNicService), 100);
}

TEST(SpanAssembler, RetryBackoffStaysInsideTheFetchInterval) {
  // kTokenFetchFail must not close the fetch interval: the whole
  // post/fail/backoff/repost window counts as token_fetch (step T4).
  EventBuilder b;
  b.Emit(0, 0, EventType::kIoQueued, 0, 1);
  b.Emit(10, 0, EventType::kTokenFetch, 50);
  b.Emit(30, 0, EventType::kTokenFetchFail, 20);
  b.Emit(60, 0, EventType::kTokenFetch, 50);
  b.Emit(90, 0, EventType::kTokenFetchDone, 900, 50);
  b.Emit(100, 0, EventType::kIoIssue, 0, 0, 0);
  b.Emit(110, 0, EventType::kIoComplete, 0, 0);

  const std::vector<IoSpan> spans = obs::AssembleSpans(b.events());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(Stage(spans.front(), SpanStage::kTokenFetch), 80);  // 10..90
  EXPECT_EQ(Stage(spans.front(), SpanStage::kQueue), 20);
}

TEST(SpanAssembler, TruncatedStreamsLandInDropCountersNotSpans) {
  EventBuilder b;
  b.Emit(10, 0, EventType::kIoIssue, 99, 0, 0);     // no matching queue
  b.Emit(20, 0, EventType::kIoComplete, 98, 0);     // no matching issue
  b.Emit(30, 0, EventType::kIoQueued, 1, 1);        // never issues
  b.Emit(40, 0, EventType::kIoQueued, 2, 2);
  b.Emit(50, 0, EventType::kIoIssue, 2, 0, 1);      // FIFO skip: io 1 stuck
  b.Emit(60, 0, EventType::kEngineStop);            // drops io 2 in flight

  obs::SpanAssemblyStats stats;
  const std::vector<IoSpan> spans = obs::AssembleSpans(b.events(), &stats);
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(stats.spans, 0u);
  EXPECT_EQ(stats.orphan_events, 2u);
  EXPECT_EQ(stats.dropped_unissued, 1u);
  EXPECT_EQ(stats.dropped_uncompleted, 1u);
}

TEST(SpanAssembler, InFlightIoIdsThatShareASlotCompleteInAnyOrder) {
  // io_ids 1024 apart share a home slot at every table size the assembler
  // reaches here, so each lookup and erase walks a probe run. Completing
  // them out of order must still pair every completion with its issue.
  constexpr std::uint64_t kIos = 20;
  constexpr std::uint64_t kStride = 1024;
  EventBuilder b;
  for (std::uint64_t k = 0; k < kIos; ++k) {
    const auto io_id = static_cast<std::int64_t>(k * kStride);
    b.Emit(static_cast<SimTime>(10 * k), 0, EventType::kIoQueued, io_id, 1);
    b.Emit(static_cast<SimTime>(10 * k + 5), 0, EventType::kIoIssue, io_id,
           0, 1);
  }
  // A second issue of a live io_id keeps the first span, as a map would.
  b.Emit(300, 0, EventType::kIoQueued, 0, 1);
  b.Emit(305, 0, EventType::kIoIssue, 0, 1, 1);
  // Complete in a scrambled order: 7 is coprime with 20.
  for (std::uint64_t n = 0; n < kIos; ++n) {
    const std::uint64_t k = (n * 7) % kIos;
    b.Emit(static_cast<SimTime>(1000 + k), 0, EventType::kIoComplete,
           static_cast<std::int64_t>(k * kStride), 0);
  }
  b.Emit(2000, 0, EventType::kIoComplete, 5 * kStride, 0);  // already done

  obs::SpanAssemblyStats stats;
  const std::vector<IoSpan> spans = obs::AssembleSpans(b.events(), &stats);
  ASSERT_EQ(spans.size(), kIos);
  EXPECT_EQ(stats.orphan_events, 1u);
  EXPECT_EQ(stats.dropped_uncompleted, 0u);
  for (std::uint64_t k = 0; k < kIos; ++k) {
    const IoSpan& span = spans[k];
    EXPECT_EQ(span.io_id, k * kStride);
    EXPECT_EQ(span.token_source, 0);
    EXPECT_EQ(span.issued_at, static_cast<SimTime>(10 * k + 5));
    EXPECT_EQ(span.completed_at, static_cast<SimTime>(1000 + k));
  }
}

TEST(SpanProfile, TableIsDeterministicAndRollsUpAllEngines) {
  EventBuilder b;
  for (std::uint32_t engine = 0; engine < 2; ++engine) {
    for (std::uint64_t io = 0; io < 8; ++io) {
      const auto t0 = static_cast<SimTime>(1000 * io + engine);
      b.Emit(t0, engine, EventType::kIoQueued,
             static_cast<std::int64_t>(io), 1);
      b.Emit(t0 + 100, engine, EventType::kIoIssue,
             static_cast<std::int64_t>(io), 0, 0);
      b.Emit(t0 + 300, engine, EventType::kIoComplete,
             static_cast<std::int64_t>(io), 0);
    }
  }
  const std::vector<IoSpan> spans = obs::AssembleSpans(b.events());
  ASSERT_EQ(spans.size(), 16u);

  obs::SpanProfile first;
  first.AddAll(spans);
  obs::SpanProfile second;
  second.AddAll(spans);
  const std::string table = first.Table();
  EXPECT_EQ(table, second.Table());
  EXPECT_EQ(first.SpanCount(), 16u);
  // Per-engine rows plus the 'all' rollup, each with the 6 stage rows
  // (5 stages + total).
  EXPECT_NE(table.find("nic_service"), std::string::npos);
  EXPECT_NE(table.find("all"), std::string::npos);
  ASSERT_NE(first.StageHistogram(0, SpanStage::kNicService), nullptr);
  EXPECT_EQ(first.StageHistogram(0, SpanStage::kNicService)->Count(), 8u);
}

TEST(SpanMetrics, SnapshotHistogramsEmitsTailQuantilesForThePrefixOnly) {
  obs::MetricsRegistry metrics;
  for (int i = 1; i <= 100; ++i) {
    metrics.Record("span.stage.queue", i * 1000);
  }
  metrics.Record("other.histogram", 5);
  metrics.SnapshotHistograms(3, "span.stage.");

  bool saw_p999 = false;
  for (const auto& row : metrics.snapshots()) {
    EXPECT_EQ(row.period, 3u);
    EXPECT_EQ(row.name.rfind("span.stage.", 0), 0u) << row.name;
    if (row.kind == "histogram_p999") saw_p999 = true;
    if (row.kind == "histogram_count") EXPECT_EQ(row.value, 100.0);
  }
  EXPECT_TRUE(saw_p999);
}

TEST(SpanAssembler, InFlightTableMatchesAnOrderedMapOnRandomIoIds) {
  // A reference std::map predicts which completions pair with an issue.
  // The ids mix a dense sliding window (the real shape), re-issues of live
  // ids, and arbitrary 64-bit ids (what a corrupt trace can carry).
  std::mt19937_64 rng(7);
  std::map<std::uint64_t, SimTime> live;  // io_id -> issued_at
  std::vector<std::tuple<std::uint64_t, SimTime, SimTime>> expected;
  std::uint64_t orphans = 0;
  std::uint64_t next_dense = 0;
  EventBuilder b;
  for (SimTime t = 0; t < 20000; ++t) {
    const std::uint64_t roll = rng() % 10;
    if (roll < 5) {
      std::uint64_t io_id = next_dense++;
      if (roll == 0) io_id = rng();
      if (roll == 1 && !live.empty()) io_id = live.begin()->first;
      b.Emit(t, 0, EventType::kIoQueued, static_cast<std::int64_t>(io_id), 1);
      b.Emit(t, 0, EventType::kIoIssue, static_cast<std::int64_t>(io_id), 0,
             0);
      live.emplace(io_id, t);
    } else {
      std::uint64_t io_id = rng();  // usually an orphan
      if (roll < 9 && !live.empty()) {
        auto it = live.lower_bound(rng() % (next_dense + 1));
        if (it == live.end()) it = live.begin();
        io_id = it->first;
      }
      b.Emit(t, 0, EventType::kIoComplete, static_cast<std::int64_t>(io_id),
             0);
      if (const auto it = live.find(io_id); it != live.end()) {
        expected.emplace_back(io_id, it->second, t);
        live.erase(it);
      } else {
        ++orphans;
      }
    }
  }

  obs::SpanAssemblyStats stats;
  const std::vector<IoSpan> spans = obs::AssembleSpans(b.events(), &stats);
  EXPECT_EQ(stats.orphan_events, orphans);
  EXPECT_EQ(stats.dropped_uncompleted, live.size());
  std::vector<std::tuple<std::uint64_t, SimTime, SimTime>> got;
  for (const IoSpan& span : spans) {
    got.emplace_back(span.io_id, span.issued_at, span.completed_at);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_GT(expected.size(), 5000u);
}

harness::ExperimentConfig DetailConfig(std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = 0.01;
  config.warmup = Seconds(1);
  config.measure_periods = 2;
  config.records = 256;
  config.qos.token_batch = 10;
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
  config.trace.enabled = true;
  config.trace.detail = true;
  config.trace.ring_capacity = 1u << 20;
  return config;
}

TEST(SpanEndToEnd, SameSeedRunsProduceByteIdenticalProfileTables) {
  harness::Experiment first(DetailConfig(17));
  const harness::ExperimentResult result_a = first.Run();
  harness::Experiment second(DetailConfig(17));
  const harness::ExperimentResult result_b = second.Run();

  ASSERT_FALSE(result_a.spans.empty());
  EXPECT_EQ(result_a.span_stats.spans, result_a.spans.size());
  EXPECT_EQ(result_a.spans.size(), result_b.spans.size());

  obs::SpanProfile profile_a;
  profile_a.AddAll(result_a.spans);
  obs::SpanProfile profile_b;
  profile_b.AddAll(result_b.spans);
  EXPECT_EQ(profile_a.Table(), profile_b.Table());

  // Reassembling from the recorder reproduces the harness's own spans —
  // the `haechi_audit --spans` path sees the same stream.
  ASSERT_NE(first.recorder(), nullptr);
  obs::SpanAssemblyStats stats;
  const std::vector<IoSpan> reassembled =
      obs::AssembleSpans(first.recorder()->Merged(), &stats);
  EXPECT_EQ(stats.spans, result_a.span_stats.spans);
  obs::SpanProfile reprofile;
  reprofile.AddAll(reassembled);
  EXPECT_EQ(reprofile.Table(), profile_a.Table());
}

void CheckSpanStructure(const std::vector<IoSpan>& spans) {
  ASSERT_FALSE(spans.empty());
  bool saw_service = false;
  for (const IoSpan& span : spans) {
    // Admission is synchronous in both runtimes.
    EXPECT_EQ(Stage(span, SpanStage::kAdmit), 0);
    std::int64_t sum = 0;
    for (std::size_t s = 0; s < obs::kSpanStages; ++s) {
      EXPECT_GE(span.stage_ns[s], 0);
      sum += span.stage_ns[s];
    }
    // Stage attribution tiles queued->completed exactly.
    EXPECT_EQ(sum, span.completed_at - span.queued_at);
    EXPECT_LE(span.queued_at, span.issued_at);
    EXPECT_LE(span.issued_at, span.completed_at);
    EXPECT_TRUE(span.token_source == 0 || span.token_source == 1);
    saw_service |= Stage(span, SpanStage::kNicService) > 0;
  }
  EXPECT_TRUE(saw_service);
}

harness::ExperimentConfig ThreadedDetailConfig() {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.qos.period = Millis(100);
  config.qos.token_tick = Millis(2);
  config.qos.report_interval = Millis(2);
  config.qos.check_interval = Millis(2);
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
  config.trace.ring_capacity = 1u << 20;
  return config;
}

TEST(SpanEndToEnd, SimulatedAndThreadedRuntimesAgreeOnStageStructure) {
  harness::Experiment sim_experiment(DetailConfig(23));
  const harness::ExperimentResult sim_result = sim_experiment.Run();
  CheckSpanStructure(sim_result.spans);

  harness::ThreadedExperiment threaded(ThreadedDetailConfig());
  threaded.Run();
  ASSERT_NE(threaded.recorder(), nullptr);
  const std::vector<IoSpan> threaded_spans =
      obs::AssembleSpans(threaded.recorder()->Merged());
  CheckSpanStructure(threaded_spans);
}

/// Assembling from the engine rings must reproduce the merged-stream
/// assembly byte for byte, stats included. Returns the shared stats.
obs::SpanAssemblyStats ExpectRingAssemblyMatchesMerged(
    const obs::Recorder& recorder) {
  obs::SpanAssemblyStats merged_stats;
  const std::vector<IoSpan> merged =
      obs::AssembleSpans(recorder.Merged(), &merged_stats);
  obs::SpanAssemblyStats ring_stats;
  const std::vector<IoSpan> from_rings =
      obs::AssembleSpans(recorder, &ring_stats);
  EXPECT_EQ(ring_stats.spans, merged_stats.spans);
  EXPECT_EQ(ring_stats.dropped_unissued, merged_stats.dropped_unissued);
  EXPECT_EQ(ring_stats.dropped_uncompleted, merged_stats.dropped_uncompleted);
  EXPECT_EQ(ring_stats.orphan_events, merged_stats.orphan_events);
  EXPECT_EQ(from_rings.size(), merged.size());
  if (from_rings.size() == merged.size() && !merged.empty()) {
    EXPECT_EQ(std::memcmp(from_rings.data(), merged.data(),
                          merged.size() * sizeof(IoSpan)),
              0);
  }
  return merged_stats;
}

TEST(SpanFromRings, MatchesMergedAssemblyOnASimDetailRun) {
  harness::Experiment experiment(DetailConfig(31));
  const harness::ExperimentResult result = experiment.Run();
  ASSERT_NE(experiment.recorder(), nullptr);
  const obs::SpanAssemblyStats stats =
      ExpectRingAssemblyMatchesMerged(*experiment.recorder());
  EXPECT_GT(stats.spans, 0u);
  EXPECT_EQ(experiment.recorder()->TotalDropped(), 0u);
  // The harness assembles from the rings too.
  EXPECT_EQ(result.span_stats.spans, stats.spans);
  ASSERT_EQ(result.spans.size(), stats.spans);
}

TEST(SpanFromRings, MatchesMergedAssemblyWhenRingsWrap) {
  harness::ExperimentConfig config = DetailConfig(37);
  config.trace.ring_capacity = 40000;  // wraps, yet keeps whole spans
  harness::Experiment experiment(std::move(config));
  experiment.Run();
  ASSERT_NE(experiment.recorder(), nullptr);
  EXPECT_GT(experiment.recorder()->TotalDropped(), 0u);
  const obs::SpanAssemblyStats stats =
      ExpectRingAssemblyMatchesMerged(*experiment.recorder());
  EXPECT_GT(stats.spans, 0u);
  EXPECT_GT(stats.dropped_unissued + stats.dropped_uncompleted, 0u);
  EXPECT_GT(stats.orphan_events, 0u);
}

TEST(SpanFromRings, MatchesMergedAssemblyOnAThreadedDetailRun) {
  harness::ThreadedExperiment threaded(ThreadedDetailConfig());
  threaded.Run();
  ASSERT_NE(threaded.recorder(), nullptr);
  const obs::SpanAssemblyStats stats =
      ExpectRingAssemblyMatchesMerged(*threaded.recorder());
  EXPECT_GT(stats.spans, 0u);
}

#else  // !HAECHI_TRACE_ENABLED

TEST(SpanAssembler, NotraceStubReturnsEmptyAndAdvertisesItself) {
  static_assert(!obs::kSpanAssemblyCompiled);
  obs::SpanAssemblyStats stats;
  stats.orphan_events = 99;  // the stub must reset incoming stats
  const std::vector<TraceEvent> events(3);
  EXPECT_TRUE(obs::AssembleSpans(events, &stats).empty());
  EXPECT_EQ(stats.spans, 0u);
  EXPECT_EQ(stats.orphan_events, 0u);

  sim::Simulator sim;
  obs::Recorder recorder(sim);
  recorder.Emit(ActorKind::kEngine, 0, EventType::kIoQueued, 1);
  stats.orphan_events = 99;
  EXPECT_TRUE(obs::AssembleSpans(recorder, &stats).empty());
  EXPECT_EQ(stats.orphan_events, 0u);
}

#endif  // HAECHI_TRACE_ENABLED

}  // namespace
}  // namespace haechi
