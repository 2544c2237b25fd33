// haechi_e2e: the repository's end-to-end benchmark driver (README.md in
// this directory defines every workload and metric).
//
//   haechi_e2e --workload=W --seed=N [--seconds=S] [--trace=0|1] [--length=F]
//
// Repeats workload W's experiment in this one process for about S seconds
// (at least twice), checks the outputs, and prints one "name value unit"
// line per metric followed by one JSON object as the last line:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// --trace=0 reports the end-to-end metrics; --trace=1 (or --traced) runs the
// layer sampler and reports the per-layer metrics instead. --length=F in
// (0, 1] shrinks the workload for smoke runs. Every metric is measured from
// outside the libraries: wall time around the public calls made here,
// public result structs, and stack samples. Exit status: 0 when every
// correctness gate holds, 1 when one fails, 2 on a bad flag; a malformed
// number aborts.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/flags.hpp"
#include "harness/experiment.hpp"
#include "harness/runtime_experiment.hpp"
#include "layer_sampler.hpp"
#include "obs/audit.hpp"
#include "workload/distributions.hpp"

namespace e2e {
namespace {

namespace harness = haechi::harness;
using haechi::MakeClientId;
using haechi::SimDuration;
using haechi::bench::AddClients;
using haechi::bench::CapacityTokens;
using haechi::workload::RequestPattern;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};

// Report order. The end-to-end set is what a user of the system sees; the
// per-layer set comes from the traced pass. `<layer>.host_pct` values come
// from the sampler, everything else from the repetitions.
constexpr MetricDef kMetrics[] = {
    {"ios_per_host_s", "1/s", false},
    {"setup_s", "s", false},
    {"peak_rss_mb", "MiB", false},
    {"kiops", "KIOPS", false},
    {"sla_met_pct", "%", false},
    {"attain_min_pct", "%", false},
    {"sim.host_pct", "%", true},
    {"sim.events_per_io", "1", true},
    {"sim.host_ns_per_event", "ns", true},
    {"net.host_pct", "%", true},
    {"net.nic_service_p50_us", "sim_us", true},
    {"net.nic_service_p99_us", "sim_us", true},
    {"rdma.host_pct", "%", true},
    {"rdma.faa_per_kio", "1/kio", true},
    {"rdma.report_writes_per_kio", "1/kio", true},
    {"kvstore.host_pct", "%", true},
    {"workload.host_pct", "%", true},
    {"workload.unserved_pct", "%", true},
    {"workload.lat_p50_us", "sim_us", true},
    {"workload.lat_p999_us", "sim_us", true},
    {"workload.lat_samples", "count", true},
    {"core.engine.host_pct", "%", true},
    {"core.engine.pool_token_pct", "%", true},
    {"core.engine.token_fetch_p99_us", "sim_us", true},
    {"core.engine.convert_wait_p99_us", "sim_us", true},
    {"core.engine.queue_p99_us", "sim_us", true},
    {"core.monitor.host_pct", "%", true},
    {"core.monitor.conversions", "count", true},
    {"core.monitor.report_signals", "count", true},
    {"core.monitor.estimate_err_pct", "%", true},
    {"core.monitor.control_resizes", "count", true},
    {"obs.host_pct", "%", true},
    {"obs.trace_events", "count", true},
    {"obs.dropped_events", "count", true},
    {"obs.spans", "count", true},
    {"obs.alerts", "count", true},
    {"obs.merge_s", "s", true},
    {"obs.audit_s", "s", true},
    {"runtime.engine.host_pct", "%", true},
    {"runtime.fabric.host_pct", "%", true},
    {"runtime.monitor.host_pct", "%", true},
    {"runtime.worker_idle_pct", "%", true},
    {"runtime.ios_per_batch", "1", true},
    {"runtime.faa_steals", "count", true},
    {"runtime.faa_dry_probes", "count", true},
    {"runtime.convert_cas_retries", "count", true},
    {"runtime.report_write_retries", "count", true},
    {"runtime.rebalances", "count", true},
    {"harness.host_pct", "%", true},
    {"harness.run_s", "s", true},
    {"other.host_pct", "%", true},
    {"bench.samples", "count", true},
    {"bench.sampler_overhead_pct", "%", true},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  double length = 1.0;
};

/// One repetition of a workload: metric name -> value, plus what the
/// correctness gates need.
struct Rep {
  std::map<std::string, double> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t faas = 0;
  std::int64_t ios = 0;
  /// Simulated outputs; must repeat exactly across repetitions.
  std::vector<std::int64_t> fingerprint;
  /// Simulator: host seconds per kHookEvents-event slice after the first
  /// progress callback, and from the last callback to the end of Run().
  std::vector<double> slice_s;
  double tail_s = 0.0;
  /// Threaded runtime: completed I/Os per second in each measured period.
  std::vector<double> period_rate;
  std::vector<std::string> errors;
};

constexpr std::uint64_t kHookEvents = 4096;

/// Starts the sampler for the lifetime of one experiment's Run(), so the
/// driver's own analysis afterwards is not charged to any layer.
class SampleScope {
 public:
  explicit SampleScope(LayerSampler* sampler) : sampler_(sampler) {
    if (sampler_ != nullptr) sampler_->Start(kIntervalUs);
  }
  ~SampleScope() {
    if (sampler_ != nullptr) sampler_->Stop();
  }
  SampleScope(const SampleScope&) = delete;
  SampleScope& operator=(const SampleScope&) = delete;

 private:
  static constexpr int kIntervalUs = 1000;
  LayerSampler* sampler_;
};

// ---------------------------------------------------------------------------
// Measurements shared by both backends.

/// sla_met_pct and attain_min_pct over every (client, measured period)
/// pair. The target is min(R, demand), or R when demand is unbounded.
/// Returns the I/Os completed within target, summed over the pairs.
std::int64_t AddServiceMetrics(const haechi::stats::PeriodSeries& series,
                               const std::vector<harness::ClientSpec>& clients,
                               Rep& rep) {
  std::int64_t pairs = 0;
  std::int64_t met = 0;
  std::int64_t within = 0;
  double worst = 1.0;
  for (std::size_t p = 0; p < series.Periods(); ++p) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const harness::ClientSpec& spec = clients[i];
      const std::int64_t target = spec.demand > 0
                                      ? std::min(spec.reservation, spec.demand)
                                      : spec.reservation;
      if (target <= 0) continue;
      const std::int64_t done =
          series.At(p, MakeClientId(static_cast<std::uint32_t>(i)));
      ++pairs;
      within += std::min(done, target);
      if (static_cast<double>(done) >= 0.95 * static_cast<double>(target)) {
        ++met;
      }
      worst = std::min(worst, static_cast<double>(done) /
                                  static_cast<double>(target));
    }
  }
  if (pairs == 0) {
    rep.errors.push_back("no (client, period) pair has a target");
    return 0;
  }
  rep.metrics["sla_met_pct"] =
      100.0 * static_cast<double>(met) / static_cast<double>(pairs);
  rep.metrics["attain_min_pct"] = 100.0 * worst;
  return within;
}

/// Engine-side counts common to the simulated and threaded engines (both
/// use core::ClientQosEngine::Stats). Returns the completed I/Os.
std::int64_t AddEngineMetrics(
    const std::vector<haechi::core::ClientQosEngine::Stats>& engines,
    Rep& rep) {
  std::int64_t ios = 0;
  std::int64_t faas = 0;
  std::int64_t reports = 0;
  std::int64_t from_pool = 0;
  std::int64_t from_reservation = 0;
  std::int64_t rejected = 0;
  std::int64_t failures = 0;
  for (const auto& s : engines) {
    ios += s.completed_total;
    faas += static_cast<std::int64_t>(s.faa_ops);
    reports += static_cast<std::int64_t>(s.report_writes);
    from_pool += s.tokens_from_pool;
    from_reservation += s.tokens_from_reservation;
    rejected += static_cast<std::int64_t>(s.rejected_submits);
    failures += static_cast<std::int64_t>(s.faa_failures + s.report_failures);
  }
  rep.ios = ios;
  rep.attempted = ios + rejected;
  rep.failed = rejected + failures;
  if (ios <= 0) {
    rep.errors.push_back("no I/O completed");
    return 0;
  }
  const double kio = static_cast<double>(ios) / 1e3;
  rep.metrics["rdma.faa_per_kio"] = static_cast<double>(faas) / kio;
  rep.metrics["rdma.report_writes_per_kio"] = static_cast<double>(reports) / kio;
  if (from_pool + from_reservation > 0) {
    rep.metrics["core.engine.pool_token_pct"] =
        100.0 * static_cast<double>(from_pool) /
        static_cast<double>(from_pool + from_reservation);
  }
  rep.faas = faas;
  return ios;
}

/// Mean |C_hat_p - U_p| / U_p over the last `measured` monitor periods,
/// where C_hat_p is the estimate the previous boundary made for period p.
double EstimateErrPct(
    const std::vector<harness::ExperimentResult::CapacityPoint>& trace,
    std::size_t measured) {
  double sum = 0.0;
  std::size_t n = 0;
  const std::size_t from = trace.size() > measured ? trace.size() - measured : 1;
  for (std::size_t k = std::max<std::size_t>(from, 1); k < trace.size(); ++k) {
    if (trace[k].completions <= 0) continue;
    sum += std::abs(static_cast<double>(trace[k - 1].estimate -
                                        trace[k].completions)) /
           static_cast<double>(trace[k].completions);
    ++n;
  }
  return n > 0 ? 100.0 * sum / static_cast<double>(n) : 0.0;
}

void AddMonitorMetrics(const haechi::core::QosMonitor::Stats& stats,
                       const std::vector<harness::ExperimentResult::CapacityPoint>&
                           trace,
                       std::size_t measured, Rep& rep) {
  rep.metrics["core.monitor.conversions"] =
      static_cast<double>(stats.conversions);
  rep.metrics["core.monitor.report_signals"] =
      static_cast<double>(stats.report_signals);
  rep.metrics["core.monitor.estimate_err_pct"] = EstimateErrPct(trace, measured);
}

// ---------------------------------------------------------------------------
// Simulator workloads.

struct SimWorkload {
  harness::ExperimentConfig config;
  /// Capacity scale: KIOPS are divided by it (normalised to full scale).
  double scale = 1.0;
  /// observed_congestion's gates: clean audit apart from A9, no dropped
  /// events, at least one W1 alert and one controller resize.
  bool observed = false;
  /// token_storm's gate: FAAs per repetition.
  std::int64_t min_faas = 0;
};

harness::ExperimentConfig SimBase(double scale, std::size_t measured,
                                  std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = scale;
  config.warmup = config.qos.period;  // one warm-up period
  config.measure_periods = measured;
  config.seed = seed;
  return config;
}

// The paper's Set 3 operating point (Fig 13/15) at full scale: Spike
// reservations 3x285K + 7x80K (90% of C_G), demand 3x340K + 7x80K, 4 KB
// GETs at a constant rate, B = 1000; two measured periods.
SimWorkload SpikeConst(std::uint64_t seed, double length) {
  SimWorkload w{SimBase(length, 2, seed), length};
  const auto scaled = [&](double v) {
    return static_cast<std::int64_t>(v * w.scale);
  };
  AddClients(w.config,
             haechi::workload::SpikeShare(10, 3, scaled(285'000),
                                          scaled(80'000)),
             haechi::workload::SpikeShare(10, 3, scaled(340'000),
                                          scaled(80'000)),
             RequestPattern::kConstantRate);
  return w;
}

// 60 clients with B = 1 and half of C_G reserved: 40 clients demand
// R + 0.55 C_G / 40, 20 demand R / 2, so the pool drains and conversion
// keeps refilling it. YCSB-A (50% PUTs) at a constant rate, scale 0.25,
// five measured periods.
SimWorkload TokenStorm(std::uint64_t seed, double length) {
  SimWorkload w{SimBase(0.25 * length, 5, seed), 0.25 * length};
  w.config.qos.token_batch = 1;
  w.min_faas = static_cast<std::int64_t>(1'000'000 * length);
  const std::int64_t cap = CapacityTokens(w.config);
  const std::int64_t r = cap / 2 / 60;
  std::vector<std::int64_t> demands(40, r + cap * 55 / 100 / 40);
  demands.resize(60, r / 2);
  AddClients(w.config, std::vector<std::int64_t>(60, r), demands,
             RequestPattern::kConstantRate);
  for (harness::ClientSpec& spec : w.config.clients) spec.write_fraction = 0.5;
  return w;
}

// Set 4 / Fig 17(b) with the operator's observability stack on: the
// paper's Zipf reservations over 80% of C_G, demand R_i + 7.5% of the
// pool, background traffic at 15% of C_G from measured period 6, detail
// tracing, the watchdog at guarantee 0.9 and the conservative controller.
// Scale 0.02, sixteen measured periods.
SimWorkload ObservedCongestion(std::uint64_t seed, double length) {
  SimWorkload w{SimBase(0.02 * length, 16, seed), 0.02 * length};
  w.observed = true;
  harness::ExperimentConfig& c = w.config;
  const std::int64_t cap = CapacityTokens(c);
  const std::int64_t reserved = cap * 8 / 10;
  const std::int64_t pool = cap - reserved;
  AddClients(
      c, haechi::bench::PaperZipf(reserved),
      [pool](std::size_t, std::int64_t r) { return r + pool * 75 / 1000; },
      RequestPattern::kConstantRate);
  c.background_demand = cap * 15 / 100 / 10;
  c.background_on = c.warmup + 6 * c.qos.period;
  c.trace.enabled = true;
  c.trace.detail = true;
  c.trace.ring_capacity = 1u << 26;  // rings grow lazily; never wrap here
  c.watchdog.enabled = true;
  c.watchdog.guarantee_fraction = 0.9;
  c.control.policy = haechi::core::control::Policy::kConservative;
  return w;
}

Rep RunSim(const SimWorkload& w, LayerSampler* sampler) {
  Rep rep;
  // The first callback comes after kHookEvents events, then every
  // kHookEvents.
  std::vector<Clock::time_point> hooks;
  std::optional<SampleScope> sampling(std::in_place, sampler);
  const Clock::time_point t0 = Clock::now();
  harness::Experiment experiment(w.config);
  experiment.simulator().SetProgressHook(
      kHookEvents,
      [&](haechi::SimTime, std::uint64_t) { hooks.push_back(Clock::now()); });
  const harness::ExperimentResult r = experiment.Run();
  const Clock::time_point t1 = Clock::now();
  sampling.reset();
  if (hooks.size() < 2) {
    rep.errors.push_back("run too short to time: fewer than two progress "
                         "hooks");
    return rep;
  }
  for (std::size_t i = 1; i < hooks.size(); ++i) {
    rep.slice_s.push_back(SecondsBetween(hooks[i - 1], hooks[i]));
  }
  rep.tail_s = SecondsBetween(hooks.back(), t1);
  // Host time before the first hook, minus the events it ran at the mean
  // host cost of an event between the first and last hook.
  const double s_per_event =
      SecondsBetween(hooks.front(), hooks.back()) /
      static_cast<double>(rep.slice_s.size() * kHookEvents);
  const double run_s = SecondsBetween(t0, t1);
  const double setup_s = SecondsBetween(t0, hooks.front()) -
                         static_cast<double>(kHookEvents) * s_per_event;

  const std::int64_t ios = AddEngineMetrics(r.engine_stats, rep);
  if (ios <= 0) return rep;
  if (rep.faas < w.min_faas) {
    rep.errors.push_back("token path idle: " + std::to_string(rep.faas) +
                         " FAAs, want >= " + std::to_string(w.min_faas));
  }
  rep.metrics["setup_s"] = setup_s;
  rep.metrics["harness.run_s"] = run_s;
  rep.metrics["kiops"] = r.total_kiops / w.scale;
  AddServiceMetrics(r.series, w.config.clients, rep);
  rep.metrics["sim.events_per_io"] =
      static_cast<double>(r.events_run) / static_cast<double>(ios);

  std::int64_t demand = 0;
  for (const auto& spec : w.config.clients) demand += spec.demand;
  demand *= static_cast<std::int64_t>(r.series.Periods());
  rep.metrics["workload.unserved_pct"] =
      100.0 * static_cast<double>(demand - r.series.Total()) /
      static_cast<double>(demand);
  rep.metrics["workload.lat_p50_us"] =
      static_cast<double>(r.latency.ValueAtQuantile(0.5)) / 1e3;
  rep.metrics["workload.lat_p999_us"] =
      static_cast<double>(r.latency.ValueAtQuantile(0.999)) / 1e3;
  rep.metrics["workload.lat_samples"] = static_cast<double>(r.latency.Count());

  AddMonitorMetrics(r.monitor_stats, r.capacity_trace,
                    w.config.measure_periods, rep);
  const auto* controller = experiment.controller();
  const std::uint64_t resizes =
      controller != nullptr ? controller->stats().resizes : 0;
  rep.metrics["core.monitor.control_resizes"] = static_cast<double>(resizes);

  if (!r.spans.empty()) {
    haechi::stats::Histogram stage[haechi::obs::kSpanStages];
    for (const haechi::obs::IoSpan& span : r.spans) {
      for (std::size_t s = 0; s < haechi::obs::kSpanStages; ++s) {
        stage[s].Record(span.stage_ns[s]);
      }
    }
    const auto us = [&](haechi::obs::SpanStage s, double q) {
      return static_cast<double>(
                 stage[static_cast<std::size_t>(s)].ValueAtQuantile(q)) /
             1e3;
    };
    using haechi::obs::SpanStage;
    rep.metrics["net.nic_service_p50_us"] = us(SpanStage::kNicService, 0.5);
    rep.metrics["net.nic_service_p99_us"] = us(SpanStage::kNicService, 0.99);
    rep.metrics["core.engine.token_fetch_p99_us"] =
        us(SpanStage::kTokenFetch, 0.99);
    rep.metrics["core.engine.convert_wait_p99_us"] =
        us(SpanStage::kConvertWait, 0.99);
    rep.metrics["core.engine.queue_p99_us"] = us(SpanStage::kQueue, 0.99);
  }
  rep.metrics["obs.spans"] = static_cast<double>(r.span_stats.spans);

  std::size_t alerts = 0;
  std::size_t w1_alerts = 0;
  if (const auto* watchdog = experiment.watchdog()) {
    alerts = watchdog->alerts().size();
    for (const auto& alert : watchdog->alerts()) {
      if (alert.kind == haechi::obs::AlertKind::kReservationShortfall) {
        ++w1_alerts;
      }
    }
  }
  rep.metrics["obs.alerts"] = static_cast<double>(alerts);

  rep.fingerprint = {static_cast<std::int64_t>(r.events_run),
                     r.series.Total(),
                     static_cast<std::int64_t>(r.latency.Count()),
                     r.latency.ValueAtQuantile(0.5),
                     r.latency.ValueAtQuantile(0.999),
                     r.latency.Max(),
                     static_cast<std::int64_t>(r.monitor_stats.checks),
                     static_cast<std::int64_t>(r.monitor_stats.conversions),
                     static_cast<std::int64_t>(r.monitor_stats.report_signals),
                     static_cast<std::int64_t>(resizes),
                     static_cast<std::int64_t>(alerts),
                     static_cast<std::int64_t>(r.span_stats.spans)};
  for (std::size_t p = 0; p < r.series.Periods(); ++p) {
    for (std::size_t i = 0; i < r.series.Clients(); ++i) {
      rep.fingerprint.push_back(
          r.series.At(p, MakeClientId(static_cast<std::uint32_t>(i))));
    }
  }
  for (const auto& s : r.engine_stats) {
    rep.fingerprint.push_back(static_cast<std::int64_t>(s.faa_ops));
    rep.fingerprint.push_back(s.tokens_from_pool);
  }
  for (const auto& point : r.capacity_trace) {
    rep.fingerprint.push_back(point.estimate);
  }

  const haechi::obs::Recorder* recorder = experiment.recorder();
  if (recorder != nullptr) {
    rep.metrics["obs.trace_events"] =
        static_cast<double>(recorder->TotalEmitted());
    rep.metrics["obs.dropped_events"] =
        static_cast<double>(recorder->TotalDropped());
    rep.fingerprint.push_back(
        static_cast<std::int64_t>(recorder->TotalEmitted()));
  }
  if (w.observed) {
    if (recorder == nullptr) {
      rep.errors.push_back("observed_congestion ran without a recorder");
      return rep;
    }
    if (recorder->TotalDropped() != 0) {
      rep.errors.push_back("trace dropped " +
                           std::to_string(recorder->TotalDropped()) +
                           " events");
    }
    const Clock::time_point m0 = Clock::now();
    const std::vector<haechi::obs::TraceEvent> events = recorder->Merged();
    const Clock::time_point m1 = Clock::now();
    haechi::obs::AuditOptions audit_options;
    audit_options.guarantee_fraction = w.config.watchdog.guarantee_fraction;
    const haechi::obs::AuditReport audit =
        haechi::obs::AuditTrace(events, audit_options);
    const Clock::time_point m2 = Clock::now();
    rep.metrics["obs.merge_s"] = SecondsBetween(m0, m1);
    rep.metrics["obs.audit_s"] = SecondsBetween(m1, m2);
    // A9 misses after the capacity step are the workload's point; the
    // end-to-end sla_met_pct reports them.
    for (const auto& violation : audit.violations) {
      if (violation.check != "A9") {
        rep.errors.push_back("audit " + violation.check + ": " +
                             violation.detail);
      }
    }
    if (w1_alerts == 0) rep.errors.push_back("no W1 alert raised");
    if (resizes == 0) rep.errors.push_back("controller never resized");
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Threaded-runtime workload.

// 4 clients (R = 20-50K per 100 ms period) with unbounded demand on 2
// workers, 2 pool shards, B = 50 and fetch_batch 8, over 65536 records
// (256 MiB, larger than the last-level cache), two warm-up periods plus
// 30 measured. C_G is profiled at 20 M IOPS so the implementation, not the
// token supply, caps throughput.
harness::ExperimentConfig ThreadsSaturate(std::uint64_t seed, double length) {
  harness::ExperimentConfig c;
  c.mode = harness::Mode::kHaechi;
  c.qos.period = haechi::Millis(100);
  c.warmup = 2 * c.qos.period;
  c.measure_periods =
      std::max<std::size_t>(4, static_cast<std::size_t>(30 * length));
  c.seed = seed;
  c.records = 65536;
  c.runtime_workers = 2;
  c.qos.pool_shards = 2;
  c.qos.token_batch = 50;
  c.qos.fetch_batch = 8;
  c.profiled_global_iops = 20e6;
  c.profiled_local_iops = 20e6;
  for (const std::int64_t r : {20'000, 30'000, 40'000, 50'000}) {
    harness::ClientSpec spec;
    spec.reservation = r;
    spec.demand = 0;  // unbounded
    c.clients.push_back(spec);
  }
  return c;
}

Rep RunThreads(const harness::ExperimentConfig& config, LayerSampler* sampler) {
  Rep rep;
  std::optional<SampleScope> sampling(std::in_place, sampler);
  const Clock::time_point t0 = Clock::now();
  harness::ThreadedExperiment experiment(config);
  const harness::ThreadedExperimentResult r = experiment.Run();
  const Clock::time_point t1 = Clock::now();
  sampling.reset();
  const double run_s = SecondsBetween(t0, t1);
  const std::size_t warmup_periods = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.warmup / config.qos.period));
  const double period_s = haechi::ToSeconds(config.qos.period);
  const double protocol_s =
      static_cast<double>(warmup_periods + config.measure_periods) * period_s;

  const std::int64_t ios = AddEngineMetrics(r.engine_stats, rep);
  if (ios <= 0) return rep;
  rep.metrics["setup_s"] = run_s - protocol_s;
  rep.metrics["harness.run_s"] = run_s;
  for (std::size_t p = 0; p < r.series.Periods(); ++p) {
    std::int64_t done = 0;
    for (std::size_t i = 0; i < r.series.Clients(); ++i) {
      done += r.series.At(p, MakeClientId(static_cast<std::uint32_t>(i)));
    }
    rep.period_rate.push_back(static_cast<double>(done) / period_s);
  }
  // The total rate is ios_per_host_s, which the host sets. kiops counts only
  // the I/Os within each client's reservation, which the protocol guarantees.
  const std::int64_t within = AddServiceMetrics(r.series, config.clients, rep);
  rep.metrics["kiops"] =
      static_cast<double>(within) /
      (static_cast<double>(r.series.Periods()) * period_s * 1e3);
  AddMonitorMetrics(r.monitor_stats, r.capacity_trace, config.measure_periods,
                    rep);

  std::uint64_t batches = 0;
  std::uint64_t worker_ios = 0;
  std::uint64_t idle_sleeps = 0;
  for (const auto& ws : r.worker_stats) {
    batches += ws.batches;
    worker_ios += ws.ios;
    idle_sleeps += ws.idle_sleeps;
  }
  constexpr double kIdleSleepS = 100e-6;  // the worker loop's park
  rep.metrics["runtime.worker_idle_pct"] =
      100.0 * static_cast<double>(idle_sleeps) * kIdleSleepS /
      (static_cast<double>(r.worker_stats.size()) * protocol_s);
  if (batches > 0) {
    rep.metrics["runtime.ios_per_batch"] =
        static_cast<double>(worker_ios) / static_cast<double>(batches);
  }
  std::uint64_t steals = 0;
  std::uint64_t dry = 0;
  for (const auto& rt : r.engine_runtime_stats) {
    steals += rt.faa_steals;
    dry += rt.faa_dry_probes;
  }
  rep.metrics["runtime.faa_steals"] = static_cast<double>(steals);
  rep.metrics["runtime.faa_dry_probes"] = static_cast<double>(dry);
  rep.metrics["runtime.convert_cas_retries"] =
      static_cast<double>(r.monitor_runtime_stats.convert_cas_retries);
  rep.metrics["runtime.report_write_retries"] =
      static_cast<double>(r.report_write_retries);
  rep.metrics["runtime.rebalances"] =
      static_cast<double>(r.monitor_stats.rebalances);

  // Token conservation on every closed period.
  for (const auto& ledger : r.ledger) {
    if (ledger.crashed || ledger.period >= r.monitor_stats.periods) continue;
    const std::int64_t expect = ledger.initial_pool + ledger.minted +
                                ledger.absorbed - ledger.granted - ledger.lent;
    if (expect != ledger.end_pool) {
      rep.errors.push_back("ledger period " + std::to_string(ledger.period) +
                           ": initial+minted+absorbed-granted-lent = " +
                           std::to_string(expect) + " != end_pool " +
                           std::to_string(ledger.end_pool));
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting.

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Host speed on a shared machine drops ~1.7x in bursts of 0.25 s to a few
// seconds while another tenant shares the core, so one repetition's time
// depends on how many bursts it caught. The simulator runs the same events
// in every repetition, so each kHookEvents-event slice, and the tail after
// the last one, is charged the least host time any repetition took for it;
// on the threaded runtime, where every period does the same work, Main()
// takes the median period instead. Returns the host seconds of Run()'s
// work after set-up and sets `s_per_event` to the cost of one event.
double LeastWorkSeconds(const std::vector<Rep>& reps, double& s_per_event) {
  std::vector<double> least = reps.front().slice_s;
  double tail_s = reps.front().tail_s;
  for (const Rep& rep : reps) {
    // A repetition with other slices fails the determinism gate.
    least.resize(std::min(least.size(), rep.slice_s.size()));
    for (std::size_t i = 0; i < least.size(); ++i) {
      least[i] = std::min(least[i], rep.slice_s[i]);
    }
    tail_s = std::min(tail_s, rep.tail_s);
  }
  double sum = 0.0;
  for (const double s : least) sum += s;
  s_per_event = least.empty()
                    ? 0.0
                    : sum / static_cast<double>(least.size() * kHookEvents);
  // Set-up excludes the events before the first slice; they cost the same.
  return static_cast<double>(kHookEvents) * s_per_event + sum + tail_s;
}

std::string Number(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

// Malformed numbers abort inside haechi::Flags; the rest is checked here.
bool ParseOptions(int argc, char** argv, Options& options) {
  const auto parsed = haechi::Flags::Parse(
      argc, argv, {"workload", "seed", "seconds", "trace", "traced", "length"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "haechi_e2e: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  const haechi::Flags& flags = parsed.value();
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "haechi_e2e: unexpected argument %s\n",
                 flags.positional().front().c_str());
    return false;
  }
  options.workload = flags.GetString("workload", "");
  const std::int64_t seed = flags.GetInt("seed", 1);
  options.seconds = flags.GetDouble("seconds", options.seconds);
  options.length = flags.GetDouble("length", options.length);
  options.traced = flags.GetBool("trace", false) || flags.GetBool("traced", false);
  if (seed < 0) {
    std::fprintf(stderr, "haechi_e2e: --seed must be >= 0\n");
    return false;
  }
  options.seed = static_cast<std::uint64_t>(seed);
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    std::fprintf(stderr, "haechi_e2e: --seconds must be in (0, 600]\n");
    return false;
  }
  if (!(options.length > 0 && options.length <= 1)) {
    std::fprintf(stderr, "haechi_e2e: --length must be in (0, 1]\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, options)) return 2;

  std::function<Rep(LayerSampler*)> run_once;
  const bool sim = options.workload != "threads_saturate";
  SimWorkload sim_workload;
  if (options.workload == "spike_const") {
    sim_workload = SpikeConst(options.seed, options.length);
  } else if (options.workload == "token_storm") {
    sim_workload = TokenStorm(options.seed, options.length);
  } else if (options.workload == "observed_congestion") {
    sim_workload = ObservedCongestion(options.seed, options.length);
  } else if (options.workload != "threads_saturate") {
    std::fprintf(stderr,
                 "haechi_e2e: --workload must be spike_const, token_storm, "
                 "observed_congestion or threads_saturate\n");
    return 2;
  }
  if (sim) {
    run_once = [&](LayerSampler* s) { return RunSim(sim_workload, s); };
  } else {
    const harness::ExperimentConfig config =
        ThreadsSaturate(options.seed, options.length);
    run_once = [config](LayerSampler* s) { return RunThreads(config, s); };
  }

  std::unique_ptr<LayerSampler> sampler;
  if (options.traced) sampler = std::make_unique<LayerSampler>(1u << 18);

  // Repeat until the next repetition would overrun the budget by more than
  // half its length; at least twice, so the determinism gate has a pair.
  constexpr std::size_t kMinReps = 2;
  std::vector<Rep> reps;
  // The peak through the first repetition only: later repetitions reuse a
  // heap the earlier ones fragmented, so the process's peak would grow with
  // the repetition count, which depends on host speed.
  double peak_rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    reps.push_back(run_once(sampler.get()));
    // Hand freed pages back to the kernel so that every repetition faults
    // its memory in as a fresh process does; otherwise set-up time depends
    // on what earlier repetitions left in the allocator (4x apart on
    // observed_congestion).
    malloc_trim(0);
    if (reps.size() == 1) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    const double elapsed = SecondsBetween(start, Clock::now());
    const double mean = elapsed / static_cast<double>(reps.size());
    if (reps.size() >= kMinReps && elapsed + mean / 2 >= options.seconds) break;
  }

  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (const std::string& e : reps[i].errors) {
      errors.push_back("rep " + std::to_string(i) + ": " + e);
    }
    if (sim && reps[i].fingerprint != reps[0].fingerprint) {
      errors.push_back("rep " + std::to_string(i) +
                       ": simulated outputs differ from rep 0");
    }
    attempted += reps[i].attempted;
    failed += reps[i].failed;
  }

  std::map<std::string, double> values;
  for (const MetricDef& def : kMetrics) {
    std::vector<double> samples;
    for (const Rep& rep : reps) {
      const auto it = rep.metrics.find(def.name);
      if (it != rep.metrics.end()) samples.push_back(it->second);
    }
    values[def.name] = samples.empty() ? 0.0 : Median(samples);
  }
  values["peak_rss_mb"] = peak_rss_mb;
  if (sim) {
    double s_per_event = 0.0;
    const double work_s = LeastWorkSeconds(reps, s_per_event);
    values["sim.host_ns_per_event"] = s_per_event * 1e9;
    values["ios_per_host_s"] = static_cast<double>(reps.front().ios) / work_s;
  } else {
    std::vector<double> rates;
    for (const Rep& rep : reps) {
      rates.insert(rates.end(), rep.period_rate.begin(), rep.period_rate.end());
    }
    values["ios_per_host_s"] = rates.empty() ? 0.0 : Median(rates);
  }

  if (sampler != nullptr) {
    const LayerProfile profile = sampler->Resolve();
    double sum = 0.0;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      values[std::string(kLayers[i]) + ".host_pct"] = profile.host_pct[i];
      sum += profile.host_pct[i];
    }
    values["bench.samples"] = static_cast<double>(profile.samples);
    values["bench.sampler_overhead_pct"] = profile.overhead_pct;
    // The sampler's self-check.
    const auto min_samples =
        static_cast<std::uint64_t>(2000 * options.length);
    if (std::abs(sum - 100.0) > 1.0) {
      errors.push_back("layer shares sum to " + Number(sum) + "%");
    }
    if (values["other.host_pct"] >= 5.0) {
      errors.push_back("other.host_pct is " + Number(values["other.host_pct"]) +
                       "%: samples are not reaching any layer");
    }
    if (profile.samples < min_samples) {
      errors.push_back("only " + std::to_string(profile.samples) +
                       " samples, want >= " + std::to_string(min_samples));
    }
    if (profile.lost > 0) {
      errors.push_back(std::to_string(profile.lost) +
                       " samples lost to a full buffer");
    }
  }

  std::printf("workload %s seed %llu pass %s repetitions %zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.traced ? "traced" : "untraced", reps.size());
  std::string json;
  for (const MetricDef& def : kMetrics) {
    if (def.per_layer != options.traced) continue;
    const double v = values[def.name];
    if (!std::isfinite(v)) {
      errors.push_back(std::string(def.name) + " is not finite");
    }
    std::printf("  %-34s %16.6g %s\n", def.name, v, def.unit);
    json += std::string(json.empty() ? "" : ", ") + "\"" + def.name +
            "\": {\"value\": " + Number(std::isfinite(v) ? v : 0.0) +
            ", \"unit\": \"" + def.unit + "\"}";
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "haechi_e2e: FAILED %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), json.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
