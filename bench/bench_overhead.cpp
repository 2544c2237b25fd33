// Microbenchmarks (google-benchmark) for the hot paths behind the paper's
// "negligible overhead for token management" claim and for the simulator
// substrate itself: the event queue, stations,
// the token-report packing, Algorithm 1, and the zipfian sampler — plus
// the tracing-overhead contract (DESIGN.md §9.2): after the google
// benchmarks, main() sweeps full experiments over token batch B with the
// flight recorder on vs off and writes the ratios to BENCH_overhead.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/capacity_estimator.hpp"
#include "core/wire.hpp"
#include "harness/experiment.hpp"
#include "net/station.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runtime/shared_region.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

#if !HAECHI_TRACE_ENABLED
// Compile-time proof of the HAECHI_TRACE=OFF cost contract: the macro must
// elide its payload expressions entirely, leaving no branch and no
// argument evaluation on any instrumented path. ActiveRecorder() is not
// constexpr, so if the disabled macro expanded to anything that touches
// the recorder — or evaluated `++evaluated` — this function would not be
// constant-evaluable and the static_assert would fail to compile.
constexpr bool TraceArgumentsElided() {
  int evaluated = 0;
  HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, 0, obs::EventType::kTokenFetch,
                     0, ++evaluated);
  HAECHI_TRACE_DETAIL(obs::ActorKind::kKv, 0, obs::EventType::kKvIssue, 0,
                      ++evaluated);
  return evaluated == 0;
}
static_assert(TraceArgumentsElided(),
              "HAECHI_TRACE=OFF must compile trace sites down to ((void)0)");
#endif

// The span pipeline must follow the same contract: with tracing compiled
// out, AssembleSpans is an empty inline stub and span.cpp/profile.cpp
// contribute no code, and kSpanAssemblyCompiled is the flag callers (the
// audit CLI, the harness) branch on to say so.
static_assert(obs::kSpanAssemblyCompiled == (HAECHI_TRACE_ENABLED != 0),
              "kSpanAssemblyCompiled must track HAECHI_TRACE");

// --- event queues -----------------------------------------------------------

template <typename Queue>
void BM_EventQueueChurn(benchmark::State& state) {
  // Steady-state churn at a given queue depth: one pop + one push per
  // iteration, times spread over a short horizon (the simulator's regime).
  Queue queue;
  Rng rng(42);
  const auto depth = static_cast<std::size_t>(state.range(0));
  SimTime now = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.Schedule(now + static_cast<SimTime>(rng.NextBelow(Millis(1))),
                   [] {});
  }
  for (auto _ : state) {
    sim::Event e = queue.PopNext();
    now = e.time;
    queue.Schedule(now + static_cast<SimTime>(rng.NextBelow(Millis(1))),
                   [] {});
    benchmark::DoNotOptimize(e.id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_EventQueueChurn, sim::BinaryHeapEventQueue)
    ->Arg(64)
    ->Arg(4096)
    ->Arg(262144);

void BM_SimulatorTimerCascade(benchmark::State& state) {
  // A protocol-like timer mix: the cost of one simulated millisecond with
  // k periodic timers.
  const int timers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    std::vector<std::unique_ptr<sim::PeriodicTimer>> running;
    int fires = 0;
    running.reserve(static_cast<std::size_t>(timers));
    for (int i = 0; i < timers; ++i) {
      running.push_back(std::make_unique<sim::PeriodicTimer>(
          sim, Micros(100 + i), [&fires] { ++fires; }));
      running.back()->Start();
    }
    state.ResumeTiming();
    sim.RunUntil(Millis(1));
    benchmark::DoNotOptimize(fires);
  }
}
BENCHMARK(BM_SimulatorTimerCascade)->Arg(10)->Arg(100);

// --- stations ---------------------------------------------------------------

void BM_FairShareStationFifo(benchmark::State& state) {
  sim::Simulator sim;
  net::FairShareStation station(sim, "bench", 0.0, 1, net::Discipline::kFifo);
  std::uint64_t served = 0;
  for (auto _ : state) {
    station.Submit(0, 100, [&served] { ++served; });
    sim.RunUntil(sim.Now() + 100);
  }
  benchmark::DoNotOptimize(served);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FairShareStationFifo);

void BM_FairShareStationRoundRobin(benchmark::State& state) {
  sim::Simulator sim;
  net::FairShareStation station(sim, "bench", 0.0, 1,
                                net::Discipline::kRoundRobin);
  std::uint64_t served = 0;
  net::FlowId flow = 0;
  for (auto _ : state) {
    station.Submit(flow, 100, [&served] { ++served; });
    flow = (flow + 1) % 16;
    sim.RunUntil(sim.Now() + 100);
  }
  benchmark::DoNotOptimize(served);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FairShareStationRoundRobin);

/// A round-robin station whose flow table spans 60 flow ids at stride 6
/// (0..354): the shape a node's stations take when the flow is the global
/// QP id of 60 clients with 6 QPs each. `backlogged` of those flows, spread
/// evenly over the table, stay backlogged; Step() submits one item and
/// serves one, so the arbiter searches a long, mostly idle table per item.
class SparseRoundRobinRig {
 public:
  static constexpr net::FlowId kStride = 6;
  static constexpr net::FlowId kFlows = 60;
  static constexpr SimDuration kService = 100;

  explicit SparseRoundRobinRig(int backlogged)
      : station_(sim_, "bench", 0.0, 1, net::Discipline::kRoundRobin),
        backlogged_(backlogged) {
    for (net::FlowId f = 0; f < kFlows; ++f) {
      station_.Submit(f * kStride, kService, [this] { ++served_; });
    }
    sim_.Run();
    for (int i = 0; i < backlogged_; ++i) {
      Submit(i);
      Submit(i);
    }
  }

  void Step() {
    Submit(next_);
    next_ = (next_ + 1) % backlogged_;
    sim_.RunUntil(sim_.Now() + kService);
  }

  [[nodiscard]] std::uint64_t served() const { return served_; }

 private:
  void Submit(int i) {
    const auto flow = static_cast<net::FlowId>(i) *
                      (kFlows / static_cast<net::FlowId>(backlogged_)) *
                      kStride;
    station_.Submit(flow, kService, [this] { ++served_; });
  }

  sim::Simulator sim_;
  net::FairShareStation station_;
  int backlogged_;
  int next_ = 0;
  std::uint64_t served_ = 0;
};

void BM_FairShareStationSparseRoundRobin(benchmark::State& state) {
  SparseRoundRobinRig rig(static_cast<int>(state.range(0)));
  for (auto _ : state) rig.Step();
  benchmark::DoNotOptimize(rig.served());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FairShareStationSparseRoundRobin)->Arg(1)->Arg(60);

// --- token management hot paths ---------------------------------------------

void BM_ReportPacking(benchmark::State& state) {
  // The engine's 1 ms reporting path boils down to this packing plus one
  // 8-byte RDMA write.
  std::uint32_t period = 0;
  std::uint64_t residual = 123456, completed = 654321;
  for (auto _ : state) {
    const std::uint64_t packed =
        core::PackReport(++period, residual, completed);
    benchmark::DoNotOptimize(core::ReportResidual(packed));
    benchmark::DoNotOptimize(core::ReportCompleted(packed));
    benchmark::DoNotOptimize(core::ReportPeriod(packed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReportPacking);

void BM_CapacityEstimator(benchmark::State& state) {
  core::CapacityEstimator est({1'570'000, 125'600, 47'100, 8});
  Rng rng(7);
  for (auto _ : state) {
    est.OnPeriodEnd(1'400'000 +
                    static_cast<std::int64_t>(rng.NextBelow(200'000)));
    benchmark::DoNotOptimize(est.Estimate());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CapacityEstimator);

// --- workload / stats -------------------------------------------------------

void BM_ZipfianSample(benchmark::State& state) {
  ZipfianSampler zipf(static_cast<std::uint64_t>(state.range(0)), 0.99);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianSample)->Arg(1024)->Arg(1048576);

void BM_HistogramRecord(benchmark::State& state) {
  stats::Histogram histogram;
  Rng rng(9);
  for (auto _ : state) {
    histogram.Record(static_cast<std::int64_t>(rng.NextBelow(10'000'000)));
  }
  benchmark::DoNotOptimize(histogram.Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  stats::Histogram histogram;
  Rng rng(9);
  for (int i = 0; i < 1'000'000; ++i) {
    histogram.Record(static_cast<std::int64_t>(rng.NextBelow(10'000'000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.ValueAtQuantile(0.999));
  }
}
BENCHMARK(BM_HistogramQuantile);

// --- concurrent runtime primitives ------------------------------------------

/// One shared pool region per shard count, like the monitor's region in
/// --runtime=threads. Re-primed by thread 0 each run so no word ever goes
/// deeply negative across Threads() sweeps.
runtime::SharedRegion& BenchRegion(std::size_t shards) {
  static runtime::SharedRegion region1(1, 1);
  static runtime::SharedRegion region4(1, 4);
  static runtime::SharedRegion region8(1, 8);
  switch (shards) {
    case 4:
      return region4;
    case 8:
      return region8;
    default:
      return region1;
  }
}

void BM_RuntimePoolFaaContended(benchmark::State& state) {
  // Step T3 under contention: every client thread FAAs -B on the same
  // cache line. This was the hot word of the whole threaded runtime
  // before sharding; the single-word arm is the baseline the sharded
  // benchmark below is measured against.
  runtime::SharedRegion& region = BenchRegion(1);
  if (state.thread_index() == 0) {
    region.ExchangePool(0, std::int64_t{1} << 60);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.FetchAddPool(0, -50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimePoolFaaContended)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_RuntimePoolFaaSharded(benchmark::State& state) {
  // The sharded pool: each thread homes on shard (thread % K) exactly like
  // engine slots do, so K >= threads means zero FAA contention and the
  // sharded-vs-single-word ratio is the win the rebalancer pays for.
  const auto shards = static_cast<std::size_t>(state.range(0));
  runtime::SharedRegion& region = BenchRegion(shards);
  const std::size_t home =
      static_cast<std::size_t>(state.thread_index()) % shards;
  if (state.thread_index() == 0) {
    for (std::size_t s = 0; s < shards; ++s) {
      region.ExchangePool(s, std::int64_t{1} << 60);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.FetchAddPool(home, -50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimePoolFaaSharded)
    ->ArgNames({"shards"})
    ->Args({4})
    ->Args({8})
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_RuntimeSeqlockReportWrite(benchmark::State& state) {
  // The client's 1 ms report path in threads mode: pack + seqlock'd
  // 16-byte slot publication (the wall-clock twin of BM_ReportPacking).
  runtime::SharedRegion region(1);
  runtime::SeqlockSlot& slot = region.slot(0);
  std::uint32_t period = 0;
  for (auto _ : state) {
    const std::uint64_t packed = core::PackReport(++period, 123456, 654321);
    slot.Write(packed, static_cast<SimTime>(period));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeSeqlockReportWrite);

void BM_RuntimeSeqlockRead(benchmark::State& state) {
  // The monitor's per-check slot scan against a quiescent slot (the
  // common case: reports are written every ~1 ms, read every ~1 ms).
  runtime::SharedRegion region(1);
  runtime::SeqlockSlot& slot = region.slot(0);
  slot.Write(core::PackReport(1, 10, 20), 1);
  for (auto _ : state) {
    const runtime::SeqlockSlot::Snapshot snap = slot.Read();
    benchmark::DoNotOptimize(snap.packed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeSeqlockRead);

/// The pre-padding 16-byte report slot layout: four of these share one
/// cache line, so neighbouring clients' report writes false-share. Kept
/// here (not in shared_region.hpp) purely as the packed arm of the
/// padded-vs-packed microbenchmark.
struct PackedReportSlot {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint64_t> packed{0};
  std::atomic<SimTime> written_at{0};

  void Write(std::uint64_t value, SimTime at) {
    std::uint32_t s = seq.load(std::memory_order_relaxed);
    while ((s & 1u) != 0 ||
           !seq.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      s = seq.load(std::memory_order_relaxed);
    }
    packed.store(value, std::memory_order_relaxed);
    written_at.store(at, std::memory_order_relaxed);
    seq.store(s + 2, std::memory_order_release);
  }
};
static_assert(sizeof(PackedReportSlot) <= 24,
              "the packed arm must keep multiple slots per cache line");

void BM_RuntimeSeqlockNeighborWritesPacked(benchmark::State& state) {
  // N clients publishing reports into *adjacent packed* slots: every write
  // bounces the shared line between cores.
  static PackedReportSlot slots[16];
  PackedReportSlot& mine =
      slots[static_cast<std::size_t>(state.thread_index()) % 16];
  std::uint32_t period = 0;
  for (auto _ : state) {
    ++period;
    mine.Write(core::PackReport(period, 123456, 654321),
               static_cast<SimTime>(period));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeSeqlockNeighborWritesPacked)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_RuntimeSeqlockNeighborWritesPadded(benchmark::State& state) {
  // The shipped layout: SeqlockSlot is padded to 64 bytes, so the same
  // adjacent-writer pattern touches one private line per client.
  static runtime::SharedRegion region(1);
  runtime::SeqlockSlot& mine =
      region.slot(static_cast<std::size_t>(state.thread_index()) % 16);
  std::uint32_t period = 0;
  for (auto _ : state) {
    ++period;
    mine.Write(core::PackReport(period, 123456, 654321),
               static_cast<SimTime>(period));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeSeqlockNeighborWritesPadded)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// --- flight recorder --------------------------------------------------------

void BM_TraceEmitInactive(benchmark::State& state) {
  // The cost of an instrumentation site when no recorder is installed:
  // one pointer load + branch with tracing compiled in, literally nothing
  // with HAECHI_TRACE=OFF.
  std::int64_t i = 0;
  for (auto _ : state) {
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, 0,
                       obs::EventType::kTokenFetch, 0, i);
    benchmark::DoNotOptimize(++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitInactive);

#if HAECHI_TRACE_ENABLED
void BM_TraceEmitActive(benchmark::State& state) {
  sim::Simulator sim;
  obs::Recorder recorder(sim);
  obs::ScopedRecorder scope(&recorder);
  std::int64_t i = 0;
  for (auto _ : state) {
    HAECHI_TRACE_EVENT(obs::ActorKind::kEngine, 0,
                       obs::EventType::kTokenFetch, 0, i);
    benchmark::DoNotOptimize(++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitActive);

/// A synthetic detail stream with the shape the assembler sees in practice:
/// per I/O one queued/fetch/fetch-done/issue/complete quintet, round-robin
/// across engines, strictly FIFO per engine (the engine queue's contract).
std::vector<obs::TraceEvent> MakeSpanEventStream(
    std::uint32_t engines, std::uint64_t ios_per_engine) {
  std::vector<obs::TraceEvent> events;
  events.reserve(static_cast<std::size_t>(engines) * ios_per_engine * 5);
  std::uint64_t seq = 0;
  SimTime t = 0;
  for (std::uint64_t i = 0; i < ios_per_engine; ++i) {
    for (std::uint32_t engine = 0; engine < engines; ++engine) {
      const auto push = [&](obs::EventType type, std::int64_t a,
                            std::int64_t b) {
        obs::TraceEvent event;
        event.time = t;
        event.seq = seq++;
        event.type = type;
        event.actor_kind = obs::ActorKind::kEngine;
        event.actor = engine;
        event.period = static_cast<std::uint32_t>(i / 1024);
        event.a = a;
        event.b = b;
        event.c = 0;
        events.push_back(event);
        t += 50;
      };
      const auto io_id = static_cast<std::int64_t>(i);
      push(obs::EventType::kIoQueued, io_id, 1);
      push(obs::EventType::kTokenFetch, 1, 0);
      push(obs::EventType::kTokenFetchDone, 1, 0);
      push(obs::EventType::kIoIssue, io_id, 0);
      push(obs::EventType::kIoComplete, io_id, 0);
    }
  }
  return events;
}

void BM_SpanAssemble(benchmark::State& state) {
  // Span assembly over a pre-merged stream: the post-run cost the harness
  // pays once per detail-traced experiment (O(1) per event by design).
  const std::vector<obs::TraceEvent> events =
      MakeSpanEventStream(4, static_cast<std::uint64_t>(state.range(0)));
  std::uint64_t spans = 0;
  for (auto _ : state) {
    obs::SpanAssemblyStats stats;
    std::vector<obs::IoSpan> out = obs::AssembleSpans(events, &stats);
    spans = stats.spans;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spans));
}
BENCHMARK(BM_SpanAssemble)->Arg(1024)->Arg(65536);
#endif

// --- end-to-end tracing overhead sweep (BENCH_overhead.json) ----------------

/// A saturated 4-client Haechi run; wall-clock time dominated by the token
/// path when B is small (B=1 posts one FAA round trip per token).
harness::ExperimentConfig OverheadConfig(std::int64_t token_batch,
                                         bool tracing,
                                         bool detail = false) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(1);
  config.measure_periods = 3;
  config.records = 256;
  config.qos.token_batch = token_batch;
  const auto cap =
      static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  for (const auto r : workload::UniformShare(cap * 6 / 10, 4)) {
    harness::ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + cap / 5;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  config.trace.enabled = tracing;
  // The detail arm measures the full span pipeline: per-I/O events plus
  // the post-run assembly inside Experiment::Run. Rings sized so the
  // detail stream does not wrap (a wrapped ring would shrink the
  // assembly input and flatter the number).
  config.trace.detail = detail;
  if (detail) config.trace.ring_capacity = 1u << 20;
  return config;
}

struct OverheadRun {
  std::int64_t token_batch = 0;
  bool tracing = false;
  double wall_ms = 0.0;
  std::uint64_t events_run = 0;
  std::int64_t completed = 0;
  double ops_per_sec = 0.0;  // simulated completions per wall second
  std::uint64_t spans = 0;   // assembled I/O spans (detail arm only)
};

OverheadRun MeasureOverhead(std::int64_t token_batch, bool tracing,
                            bool detail = false) {
  harness::Experiment experiment(
      OverheadConfig(token_batch, tracing, detail));
  const auto start = std::chrono::steady_clock::now();
  harness::ExperimentResult result = experiment.Run();
  const auto stop = std::chrono::steady_clock::now();

  OverheadRun run;
  run.token_batch = token_batch;
  run.tracing = tracing;
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  run.events_run = result.events_run;
  for (std::uint32_t c = 0; c < 4; ++c) {
    run.completed += result.series.ClientTotal(MakeClientId(c));
  }
  run.ops_per_sec =
      static_cast<double>(run.completed) / (run.wall_ms / 1e3);
  run.spans = static_cast<std::uint64_t>(result.spans.size());
  return run;
}

/// One assembly pass over a 1M-event synthetic stream (800k spans): the
/// marginal ns/span cost of the profiler, independent of emission.
double MeasureSpanAssemblyNsPerSpan() {
#if HAECHI_TRACE_ENABLED
  const std::vector<obs::TraceEvent> events = MakeSpanEventStream(4, 50'000);
  obs::SpanAssemblyStats stats;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<obs::IoSpan> spans = obs::AssembleSpans(events, &stats);
  const auto stop = std::chrono::steady_clock::now();
  if (stats.spans == 0) return 0.0;
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(stats.spans);
#else
  return 0.0;
#endif
}

// --- hand-rolled micro measurements (into the JSON) -------------------------
// The google benchmarks above give the interactive view; these feed the
// same contrasts (sparse round-robin arbitration, sharded-vs-single-word
// FAA, padded-vs-packed seqlock writes) into BENCH_overhead.json so the
// bench_regress --overhead-bin refresh captures them without running the
// google-benchmark suite. Pure wall-clock numbers: regenerated, never
// gate-compared.

/// Runs `op(thread_index)` iters-per-thread times on `threads` threads and
/// returns mean wall nanoseconds per op.
template <typename Fn>
double MeasureThreadedNsPerOp(int threads, std::int64_t iters_per_thread,
                              Fn&& op) {
  std::atomic<bool> start{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (std::int64_t i = 0; i < iters_per_thread; ++i) op(t);
    });
  }
  const auto begin = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  for (auto& thread : pool) thread.join();
  const auto end = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(end - begin).count();
  return ns / static_cast<double>(iters_per_thread * threads);
}

double MeasureFaaNsPerOp(std::size_t shards, int threads) {
  runtime::SharedRegion region(1, shards);
  for (std::size_t s = 0; s < shards; ++s) {
    region.ExchangePool(s, std::int64_t{1} << 60);
  }
  return MeasureThreadedNsPerOp(threads, 1'000'000, [&](int t) {
    region.FetchAddPool(static_cast<std::size_t>(t) % shards, -50);
  });
}

double MeasureSeqlockWriteNsPerOp(bool padded, int threads) {
  if (padded) {
    static runtime::SharedRegion region(1);
    return MeasureThreadedNsPerOp(threads, 1'000'000, [&](int t) {
      region.slot(static_cast<std::size_t>(t) % 16)
          .Write(core::PackReport(1, 10, 20), 1);
    });
  }
  static PackedReportSlot packed[16];
  return MeasureThreadedNsPerOp(threads, 1'000'000, [&](int t) {
    packed[static_cast<std::size_t>(t) % 16].Write(
        core::PackReport(1, 10, 20), 1);
  });
}

/// Wall nanoseconds per item through SparseRoundRobinRig: one submit, one
/// round-robin arbitration and one service event.
double MeasureStationRrNsPerItem(int backlogged) {
  SparseRoundRobinRig rig(backlogged);
  constexpr std::int64_t kWarmup = 100'000;
  constexpr std::int64_t kItems = 2'000'000;
  for (std::int64_t i = 0; i < kWarmup; ++i) rig.Step();
  const auto begin = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < kItems; ++i) rig.Step();
  const auto end = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(rig.served());
  return std::chrono::duration<double, std::nano>(end - begin).count() /
         static_cast<double>(kItems);
}

/// Ceiling on the B=1 detail-tracing + span-assembly slowdown, in percent
/// of recorder-off throughput: the measured delta (median of three sweeps
/// on a 4-core host, 52%) plus a 15.5-point band for wall-clock noise;
/// bench_regress fails the refresh when a change pushes the span pipeline
/// past it.
constexpr double kSpanDeltaGatePercent = 67.5;

/// Sweeps B in {1, 10, 100, 1000} with the recorder off then on and writes
/// the machine-readable summary the overhead contract is checked against —
/// plus the round-robin arbitration, sharded-FAA and seqlock-padding micro
/// numbers.
int WriteOverheadJson(const std::string& path) {
  std::vector<OverheadRun> runs;
  for (const std::int64_t batch : {1, 10, 100, 1000}) {
    // Off first, on second, so cache warm-up favours the tracing arm
    // symmetrically across batches.
    runs.push_back(MeasureOverhead(batch, false));
    runs.push_back(MeasureOverhead(batch, true));
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"overhead\",\n");
  std::fprintf(out, "  \"trace_compiled\": %s,\n",
               HAECHI_TRACE_ENABLED ? "true" : "false");
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const OverheadRun& r = runs[i];
    std::fprintf(out,
                 "    {\"token_batch\": %lld, \"tracing\": %s, "
                 "\"wall_ms\": %.3f, \"events_run\": %llu, "
                 "\"completed\": %lld, \"ops_per_sec\": %.1f}%s\n",
                 static_cast<long long>(r.token_batch),
                 r.tracing ? "true" : "false", r.wall_ms,
                 static_cast<unsigned long long>(r.events_run),
                 static_cast<long long>(r.completed), r.ops_per_sec,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"tracing_delta_percent\": {");
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
    const double off = runs[i].ops_per_sec;
    const double on = runs[i + 1].ops_per_sec;
    std::fprintf(out, "%s\"%lld\": %.2f", i > 0 ? ", " : "",
                 static_cast<long long>(runs[i].token_batch),
                 off > 0.0 ? (off - on) / off * 100.0 : 0.0);
  }
  std::fprintf(out, "},\n");

  // Span pipeline at B=1 (the worst case: one FAA per token, so the run is
  // already token-path bound): per-I/O detail events plus the post-run
  // span assembly inside Experiment::Run, against the B=1 recorder-off
  // arm. bench_regress gates span_delta_percent against the committed
  // span_delta_gate_percent (rewritten verbatim on refresh, so the bound
  // survives regeneration). Under HAECHI_TRACE=OFF detail is inert and
  // the delta collapses to noise; the gate only applies when
  // trace_compiled is true.
  const OverheadRun span_run = MeasureOverhead(1, true, true);
  const double off_b1 = runs.front().ops_per_sec;
  const double span_delta =
      off_b1 > 0.0 ? (off_b1 - span_run.ops_per_sec) / off_b1 * 100.0 : 0.0;
  std::fprintf(out,
               "  \"span_detail_run\": {\"token_batch\": 1, "
               "\"wall_ms\": %.3f, \"completed\": %lld, "
               "\"ops_per_sec\": %.1f, \"spans\": %llu},\n",
               span_run.wall_ms, static_cast<long long>(span_run.completed),
               span_run.ops_per_sec,
               static_cast<unsigned long long>(span_run.spans));
  std::fprintf(out, "  \"span_delta_percent\": %.2f,\n", span_delta);
  std::fprintf(out, "  \"span_delta_gate_percent\": %.1f,\n",
               kSpanDeltaGatePercent);
  std::fprintf(out, "  \"span_assembly_ns_per_span\": %.1f,\n",
               MeasureSpanAssemblyNsPerSpan());

  // Round-robin arbitration over a sparse 360-id flow table, sharded-vs-
  // single-word pool FAA and padded-vs-packed seqlock report writes (wall
  // ns per item/op; informational, not gate-compared).
  std::fprintf(out, "  \"station_rr_ns_per_item\": [\n");
  bool first = true;
  for (const int backlogged : {1, 60}) {
    std::fprintf(out, "%s    {\"flow_ids\": %u, \"backlogged\": %d, "
                      "\"ns_per_item\": %.1f}",
                 first ? "" : ",\n",
                 SparseRoundRobinRig::kFlows * SparseRoundRobinRig::kStride,
                 backlogged, MeasureStationRrNsPerItem(backlogged));
    first = false;
  }
  std::fprintf(out, "\n  ],\n  \"pool_faa_ns_per_op\": [\n");
  const std::size_t shard_counts[] = {1, 4, 8};
  const int thread_counts[] = {1, 4, 8};
  first = true;
  for (const std::size_t shards : shard_counts) {
    for (const int threads : thread_counts) {
      std::fprintf(out, "%s    {\"shards\": %zu, \"threads\": %d, "
                        "\"ns_per_op\": %.1f}",
                   first ? "" : ",\n", shards, threads,
                   MeasureFaaNsPerOp(shards, threads));
      first = false;
    }
  }
  std::fprintf(out, "\n  ],\n  \"seqlock_write_ns_per_op\": [\n");
  first = true;
  for (const bool padded : {false, true}) {
    for (const int threads : thread_counts) {
      std::fprintf(out, "%s    {\"layout\": \"%s\", \"threads\": %d, "
                        "\"ns_per_op\": %.1f}",
                   first ? "" : ",\n", padded ? "padded" : "packed", threads,
                   MeasureSeqlockWriteNsPerOp(padded, threads));
      first = false;
    }
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("tracing overhead sweep written to %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace haechi

int main(int argc, char** argv) {
  // Peel off our own flag before google-benchmark sees the argv.
  std::string json_out = "BENCH_overhead.json";
  bool sweep = true;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else if (arg == "--no-sweep") {
      sweep = false;  // microbenchmarks only
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return sweep ? haechi::WriteOverheadJson(json_out) : 0;
}
