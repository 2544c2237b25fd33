// bench_regress — deterministic figure-suite regression gate.
//
// Re-runs scaled-down versions of the paper's headline QoS figures (fig09
// sufficient demand, fig10 insufficient demand, fig16 congestion step)
// in-process, writes the per-figure throughput numbers to BENCH_qos.json at
// the repo root, and compares them against the previously-committed JSON
// within a tolerance band. The simulator is deterministic, so at fixed
// scale/seed/periods the numbers are machine-independent: any drift outside
// the band is a real behaviour change, not noise.
//
// Also gates the concurrent threaded runtime (--runtime=threads): one
// token-governed ThreadedExperiment is compared against BENCH_runtime.json
// within a wider band (--runtime-tolerance), since that backend is
// wall-clock scheduled and agrees statistically, not bitwise.
//
// Also gates the cluster subsystem: the ext_cluster_borrow scenario
// (stranded reservations under skewed per-node demand) runs with borrowing
// off and adaptive, compares both against BENCH_cluster.json, and fails
// outright if the adaptive policy does not *strictly* improve aggregate
// reserved attainment over borrowing off — the shape the bench exists to
// demonstrate, pinned as a gate.
//
// Optionally refreshes BENCH_overhead.json by spawning the bench_overhead
// binary (--overhead-bin=PATH); that file's tracing-delta percentages are
// wall-clock based and *not* compared, only regenerated — except the span
// pipeline's B=1 slowdown (span_delta_percent), which is checked against
// the generous compiled-in bound span_delta_gate_percent.
//
// Exit codes: 0 = within tolerance (or no baseline yet), 1 = regression,
// 2 = usage/IO error.
//
// Examples:
//   build/tools/bench_regress                       # compare + rewrite
//   build/tools/bench_regress --tolerance=0.02
//   build/tools/bench_regress --selftest            # gate logic check
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "cluster/borrow.hpp"
#include "common/flags.hpp"
#include "core/control/controller.hpp"
#include "harness/cluster_experiment.hpp"
#include "harness/runtime_experiment.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"

using namespace haechi;

namespace {

constexpr const char* kUsage = R"(bench_regress - QoS figure regression gate

flags (all optional):
  --out=PATH           JSON to (re)write            [BENCH_qos.json]
  --baseline=PATH      JSON to compare against      [same as --out]
  --tolerance=F        allowed relative drift       [0.05]
  --scale=F            capacity scale               [0.02]
  --periods=N          measured periods per figure  [figure default]
  --seed=N             RNG seed                     [42]
  --runtime-out=PATH   threads-mode gate JSON; empty skips the threaded
                       run entirely                 [BENCH_runtime.json]
  --runtime-tolerance=F allowed threads-mode drift  [0.25]
  --cluster-out=PATH   cluster borrow gate JSON; empty skips the cluster
                       runs entirely                [BENCH_cluster.json]
  --cluster-tolerance=F allowed cluster drift       [0.05]
  --overhead-bin=PATH  also run the bench_overhead sweep to refresh
                       BENCH_overhead.json (skips its microbenchmarks) and
                       gate span_delta_percent against the committed
                       span_delta_gate_percent
  --selftest           verify the gate itself: current numbers must pass
                       against themselves and fail against a doctored
                       baseline; runs no file writes

exit codes: 0 = within tolerance, 1 = regression, 2 = usage/IO error
)";

struct FigureResult {
  std::string name;
  double total_kiops = 0.0;   // compared against the baseline
  double detail = 0.0;        // informational (gain %, drop %, ...)
  std::string detail_name;
};

bench::BenchArgs GateArgs(double scale, std::uint64_t seed,
                          std::size_t periods) {
  bench::BenchArgs args;
  args.scale = scale;
  args.seed = seed;
  args.periods = periods;  // 0 = per-figure default
  args.warmup = Seconds(1);
  args.records = 4096;
  return args;
}

harness::ExperimentResult RunFigure(harness::ExperimentConfig config) {
  return harness::Experiment(std::move(config)).Run();
}

/// fig09: sufficient demand, zipf reservations, full Haechi.
FigureResult RunFig09(const bench::BenchArgs& args) {
  harness::ExperimentConfig config = bench::BaseConfig(args, 6);
  config.mode = harness::Mode::kHaechi;
  const std::int64_t cap = bench::CapacityTokens(config);
  const std::int64_t reserved = cap * 9 / 10;
  const std::int64_t pool = cap - reserved;
  const auto reservations = bench::PaperZipf(reserved);
  bench::AddClients(config, reservations,
                    [pool](std::size_t, std::int64_t r) { return r + pool; },
                    workload::RequestPattern::kOpenLoop);
  const harness::ExperimentResult r = RunFigure(std::move(config));
  // Worst per-client reservation attainment — the figure's "meets" column.
  double min_attain = 1e9;
  for (std::uint32_t c = 0; c < 10; ++c) {
    const double attain =
        static_cast<double>(r.series.ClientMinPerPeriod(MakeClientId(c))) /
        static_cast<double>(reservations[c]);
    min_attain = std::min(min_attain, attain);
  }
  return {"fig09_zipf_haechi", bench::NormKiops(r.total_kiops, args),
          min_attain * 100.0, "min_attainment_pct"};
}

/// fig10: C1/C2 under-demand; conversion gain over Basic Haechi.
FigureResult RunFig10(const bench::BenchArgs& args) {
  double totals[2] = {0, 0};
  for (const harness::Mode mode :
       {harness::Mode::kHaechi, harness::Mode::kBasicHaechi}) {
    harness::ExperimentConfig config = bench::BaseConfig(args, 6);
    config.mode = mode;
    const std::int64_t cap = bench::CapacityTokens(config);
    const std::int64_t reserved = cap * 9 / 10;
    const std::int64_t pool = cap - reserved;
    bench::AddClients(config, bench::PaperZipf(reserved),
                      [pool](std::size_t i, std::int64_t r) {
                        return i < 2 ? r / 2 : r + pool;
                      },
                      workload::RequestPattern::kOpenLoop);
    totals[mode == harness::Mode::kHaechi ? 0 : 1] =
        bench::NormKiops(RunFigure(std::move(config)).total_kiops, args);
  }
  return {"fig10_zipf_haechi", totals[0],
          (totals[0] / totals[1] - 1.0) * 100.0, "conversion_gain_pct"};
}

/// fig16: background congestion starts mid-run; Algorithm 1 adapts.
FigureResult RunFig16(const bench::BenchArgs& args) {
  harness::ExperimentConfig config = bench::BaseConfig(args, 10);
  config.mode = harness::Mode::kHaechi;
  const std::int64_t cap = bench::CapacityTokens(config);
  const std::int64_t reserved = cap * 8 / 10;
  const std::int64_t pool = cap - reserved;
  bench::AddClients(config, workload::UniformShare(reserved, 10),
                    [pool](std::size_t, std::int64_t r) { return r + pool; },
                    workload::RequestPattern::kOpenLoop);
  const std::size_t step_period = config.measure_periods / 2;
  config.background_demand = cap * 15 / 100 / 10;
  config.background_on =
      config.warmup +
      static_cast<SimTime>(step_period) * config.qos.period;
  const std::size_t periods = config.measure_periods;
  const harness::ExperimentResult r = RunFigure(std::move(config));
  std::vector<std::int64_t> period_totals;
  for (std::size_t p = 0; p < periods; ++p) {
    period_totals.push_back(r.series.PeriodTotal(p));
  }
  const double before = bench::MeanOver(period_totals, 1, step_period);
  const double after =
      bench::MeanOver(period_totals, step_period + 2, period_totals.size());
  return {"fig16_uniform_congestion", bench::NormKiops(r.total_kiops, args),
          (1.0 - after / std::max(before, 1.0)) * 100.0, "step_drop_pct"};
}

/// Threads-mode gate figure: the concurrent runtime executes a fixed
/// 4-tenant Haechi workload against explicit profiled capacities, so its
/// throughput is token-governed (40000 global tokens per 100 ms period
/// against a 19000-token aggregate demand), not machine-governed. The
/// sharded-pool + batched-fetch + worker-pool configuration must sustain
/// the demand cap; the wide --runtime-tolerance band absorbs wall-clock
/// scheduling noise, while a token leak, a starved tenant, or a
/// contention collapse lands far outside it.
FigureResult RunRuntimeThreads(std::uint64_t seed) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.qos.period = Millis(100);
  config.qos.token_tick = Millis(2);
  config.qos.report_interval = Millis(2);
  config.qos.check_interval = Millis(2);
  config.qos.token_batch = 50;
  config.qos.fetch_batch = 8;
  config.qos.pool_shards = 4;
  config.qos.pool_retry_interval = Millis(2);
  config.qos.faa_end_guard = Millis(20);
  config.profiled_global_iops = 400000;
  config.profiled_local_iops = 120000;
  config.records = 4096;
  config.warmup = Millis(100);
  config.measure_periods = 4;
  config.seed = seed;
  config.runtime_workers = 4;
  const std::int64_t reservations[] = {6000, 5000, 3000, 2000};
  const std::int64_t demands[] = {7000, 6000, 3500, 2500};
  for (std::size_t i = 0; i < 4; ++i) {
    harness::ClientSpec spec;
    spec.reservation = reservations[i];
    spec.demand = demands[i];
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  harness::ThreadedExperiment experiment(std::move(config));
  const harness::ThreadedExperimentResult result = experiment.Run();
  return {"runtime_threads_haechi", result.total_kiops,
          ToSeconds(result.wall_time), "wall_seconds"};
}

/// Cluster gate figure: the ext_cluster_borrow scenario scaled down. Two
/// data nodes; four strictly-provisioned residents (limit == reservation)
/// squeeze the hot node's admission first, then two managed clients send
/// nearly all of their above-reservation demand there — part of each
/// managed reservation strands on the idle node, reachable only through
/// borrowing. total_kiops is the managed clients' aggregate
/// *reserved-attained* throughput (served credited only up to the
/// reservation), the quantity borrowing exists to recover.
FigureResult RunClusterBorrow(const bench::BenchArgs& args,
                              cluster::BorrowPolicy policy) {
  harness::ClusterExperimentConfig config;
  config.net.capacity_scale = args.scale;
  config.data_nodes = 2;
  config.warmup = args.warmup;
  config.measure_periods = args.periods > 0 ? args.periods : 6;
  config.qos.token_batch = std::max<std::int64_t>(
      10, static_cast<std::int64_t>(1000 * args.scale));
  config.seed = args.seed;
  const auto cap =
      static_cast<std::int64_t>(config.net.GlobalCapacityIops());

  constexpr std::size_t kResidents = 4;
  constexpr std::size_t kManaged = 2;
  const std::int64_t reservation = cap / 8;
  // Residents first: the rebalancer visits clients in admission order, so
  // their node-0 shares claim the admission headroom before the managed
  // increases are considered.
  for (std::size_t i = 0; i < kResidents; ++i) {
    harness::ClusterClientSpec resident;
    resident.tenant = 1;
    resident.reservation = cap / 10;
    resident.limit = resident.reservation;
    resident.demand_per_node = {cap, 0};
    config.clients.push_back(resident);
  }
  for (std::size_t i = 0; i < kManaged; ++i) {
    harness::ClusterClientSpec managed;
    managed.tenant = 0;
    managed.reservation = reservation;
    const auto demand = reservation * 16 / 10;
    managed.demand_per_node = {demand * 95 / 100, demand * 5 / 100};
    config.clients.push_back(managed);
  }
  std::int64_t managed_total = 0, resident_total = 0;
  for (const auto& client : config.clients) {
    (client.tenant == 0 ? managed_total : resident_total) +=
        client.reservation;
  }
  config.tenants = {{managed_total, 0}, {resident_total, 0}};

  config.cluster.borrow.policy = policy;
  config.cluster.dry_watermark = config.qos.token_batch * 5;
  config.cluster.lender_floor = config.qos.token_batch * 10;
  config.cluster.borrow.quota = std::max<std::int64_t>(cap / 20, 1);
  config.cluster.borrow.min_quota = config.qos.token_batch;
  config.cluster.borrow.max_quota = std::max<std::int64_t>(cap / 4, 1);

  const auto periods = config.measure_periods;
  harness::ClusterExperiment experiment(std::move(config));
  const harness::ClusterExperimentResult r = experiment.Run();

  std::int64_t attained = 0;
  for (std::size_t p = 2; p < periods; ++p) {
    for (std::size_t i = 0; i < kManaged; ++i) {
      const auto id =
          MakeClientId(static_cast<std::uint32_t>(kResidents + i));
      const std::int64_t served =
          r.node_series[0].At(p, id) + r.node_series[1].At(p, id);
      attained += std::min(served, reservation);
    }
  }
  const double kiops = bench::NormKiops(
      ToKiops(attained, static_cast<SimDuration>(periods - 2) * kSecond),
      args);
  const std::string name =
      std::string("cluster_borrow_") +
      std::string(cluster::ToString(policy));
  return {name, kiops, static_cast<double>(r.borrow_granted),
          "borrowed_tokens"};
}

/// Survivability figures (DESIGN.md §15), both on the fig16 client shape
/// (10 uniform clients, 60% reserved, open-loop demand above every share).
///
/// survive_degraded: the monitor dies mid-run and never returns — every
/// client falls back to reservation-only pacing, bounded by
/// degraded_max_periods. total_kiops is the backend-side aggregate (the
/// dead monitor witnesses nothing), which pins the degraded envelope: a
/// broken grace (no fallback, throughput collapses) and an unbounded
/// fallback (free service forever) both land far outside the band.
FigureResult RunSurviveDegraded(const bench::BenchArgs& args) {
  harness::ExperimentConfig config = bench::BaseConfig(args, 10);
  config.mode = harness::Mode::kHaechi;
  const std::int64_t cap = bench::CapacityTokens(config);
  const std::int64_t reserved = cap * 6 / 10;
  const std::int64_t pool = cap - reserved;
  bench::AddClients(config, workload::UniformShare(reserved, 10),
                    [pool](std::size_t, std::int64_t r) { return r + pool; },
                    workload::RequestPattern::kOpenLoop);
  config.faults.MonitorCrashAt(
      0, config.warmup + 4 * config.qos.period + config.qos.period / 2);
  const SimDuration wall =
      config.warmup +
      static_cast<SimDuration>(config.measure_periods) * config.qos.period;
  const harness::ExperimentResult r = RunFigure(std::move(config));
  std::int64_t completed = 0;
  double degraded = 0.0;
  for (const auto& e : r.engine_stats) {
    completed += e.completed_total;
    degraded += static_cast<double>(e.degraded_periods);
  }
  return {"survive_degraded",
          bench::NormKiops(ToKiops(completed, wall), args),
          degraded / static_cast<double>(r.engine_stats.size()),
          "degraded_periods_mean"};
}

/// survive_recover: a 1.7-period outage with checkpoint recovery mid-run.
/// The detail is periods_to_recover — measured rows after the crash row
/// until every client is back at >= 95% of its reservation — pinned by a
/// shape gate in Run(): recovery must happen and must stay bounded.
FigureResult RunSurviveRecover(const bench::BenchArgs& args) {
  harness::ExperimentConfig config = bench::BaseConfig(args, 12);
  config.mode = harness::Mode::kHaechi;
  const std::int64_t cap = bench::CapacityTokens(config);
  const std::int64_t reserved = cap * 6 / 10;
  const std::int64_t pool = cap - reserved;
  bench::AddClients(config, workload::UniformShare(reserved, 10),
                    [pool](std::size_t, std::int64_t r) { return r + pool; },
                    workload::RequestPattern::kOpenLoop);
  const SimTime crash =
      config.warmup + 2 * config.qos.period + config.qos.period / 2;
  config.faults.MonitorCrashAt(0, crash,
                               crash + config.qos.period * 17 / 10);
  const std::size_t periods = config.measure_periods;
  const harness::ExperimentResult r = RunFigure(std::move(config));
  // The crash lands in measured row 2 (which never closes and reads 0);
  // count the rows after it until the guarantee is whole again.
  constexpr std::size_t kCrashRow = 2;
  std::size_t recovered_at = periods;
  for (std::size_t p = kCrashRow + 1; p < periods; ++p) {
    bool all_met = true;
    for (std::size_t c = 0; c < r.reservations.size(); ++c) {
      if (r.series.At(p, MakeClientId(static_cast<std::uint32_t>(c))) <
          r.reservations[c] * 95 / 100) {
        all_met = false;
        break;
      }
    }
    if (all_met) {
      recovered_at = p;
      break;
    }
  }
  const double periods_to_recover =
      recovered_at < periods
          ? static_cast<double>(recovered_at - kCrashRow)
          : 0.0;  // 0 = never recovered; the shape gate flags it
  return {"survive_recover", bench::NormKiops(r.total_kiops, args),
          periods_to_recover, "periods_to_recover"};
}

#if HAECHI_WATCHDOG_ENABLED
/// Closed-loop recovery figure: the controller suite's W1 shortfall chaos
/// (an over-reserved victim squeezed by background congestion) run once
/// per policy. total_kiops is the usual throughput band; the detail is
/// periods_to_recover — first W1 alert to the controller's `recovered`
/// verdict, 0 when the loop never closes (the off policy's signature).
FigureResult RunRecovery(const bench::BenchArgs& args,
                         core::control::Policy policy) {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = args.scale;
  config.warmup = args.warmup;
  config.measure_periods = 10;
  config.records = args.records;
  config.seed = args.seed;
  config.trace.enabled = true;
  config.watchdog.enabled = true;
  config.watchdog.guarantee_fraction = 0.9;
  config.control.policy = policy;
  const auto cap =
      static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  harness::ClientSpec victim;
  victim.reservation = cap * 24 / 100;
  victim.demand = cap / 2;
  victim.pattern = workload::RequestPattern::kOpenLoop;
  config.clients.push_back(victim);
  for (int i = 0; i < 3; ++i) {
    harness::ClientSpec spec;
    spec.reservation = cap * 12 / 100;
    spec.demand = spec.reservation / 2;  // demand-capped receiver
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  config.background_demand = cap / 4 / 4;

  harness::Experiment experiment(std::move(config));
  const harness::ExperimentResult result = experiment.Run();
  double periods_to_recover = 0.0;
  for (const obs::Alert& alert : experiment.watchdog()->alerts()) {
    if (alert.kind == obs::AlertKind::kRecovered &&
        alert.expected == static_cast<std::int64_t>(
                              obs::AlertKind::kReservationShortfall)) {
      periods_to_recover = static_cast<double>(alert.observed);
      break;
    }
  }
  const std::string name =
      std::string("recovery_") + std::string(core::control::ToString(policy));
  return {name, bench::NormKiops(result.total_kiops, args),
          periods_to_recover, "periods_to_recover"};
}
#endif  // HAECHI_WATCHDOG_ENABLED

std::string ToJson(const std::vector<FigureResult>& figures, double scale,
                   double tolerance, std::uint64_t seed) {
  std::string out = "{\n  \"bench\": \"qos_regress\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"scale\": %g,\n  \"seed\": %llu,\n"
                "  \"tolerance\": %g,\n  \"figures\": [\n",
                scale, static_cast<unsigned long long>(seed), tolerance);
  out += buf;
  for (std::size_t i = 0; i < figures.size(); ++i) {
    const FigureResult& f = figures[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"total_kiops\": %.3f, "
                  "\"%s\": %.3f}%s\n",
                  f.name.c_str(), f.total_kiops, f.detail_name.c_str(),
                  f.detail, i + 1 < figures.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

/// Pulls `"total_kiops": N` for `"name": "X"` out of a baseline JSON. A
/// full parser would be overkill for a format this tool itself writes.
bool BaselineKiops(const std::string& json, const std::string& name,
                   double& out) {
  const std::string key = "\"name\": \"" + name + "\"";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return false;
  const std::string field = "\"total_kiops\": ";
  const std::size_t value = json.find(field, at);
  if (value == std::string::npos) return false;
  out = std::strtod(json.c_str() + value + field.size(), nullptr);
  return true;
}

/// Returns the number of figures drifting outside the band (0 = pass).
int Compare(const std::vector<FigureResult>& figures,
            const std::string& baseline, double tolerance) {
  int regressions = 0;
  for (const FigureResult& f : figures) {
    double expected = 0;
    if (!BaselineKiops(baseline, f.name, expected)) {
      std::printf("%-26s %10.1f KIOPS  (new figure, no baseline)\n",
                  f.name.c_str(), f.total_kiops);
      continue;
    }
    const double drift = expected != 0.0
                             ? (f.total_kiops - expected) / expected
                             : (f.total_kiops != 0.0 ? 1.0 : 0.0);
    const bool ok = std::fabs(drift) <= tolerance;
    std::printf("%-26s %10.1f KIOPS  baseline %10.1f  drift %+6.2f%%  %s\n",
                f.name.c_str(), f.total_kiops, expected, drift * 100.0,
                ok ? "ok" : "REGRESSION");
    regressions += !ok;
  }
  return regressions;
}

int SelfTest(const std::vector<FigureResult>& figures, double scale,
             double tolerance, std::uint64_t seed) {
  const std::string current = ToJson(figures, scale, tolerance, seed);
  if (Compare(figures, current, tolerance) != 0) {
    std::fprintf(stderr, "selftest: current numbers fail vs themselves\n");
    return 1;
  }
  // Doctor every figure down 3x tolerance: each one must trip the gate.
  std::vector<FigureResult> doctored = figures;
  for (FigureResult& f : doctored) f.total_kiops *= 1.0 - 3.0 * tolerance;
  const std::string bad = ToJson(doctored, scale, tolerance, seed);
  if (Compare(figures, bad, tolerance) !=
      static_cast<int>(figures.size())) {
    std::fprintf(stderr, "selftest: doctored baseline not detected\n");
    return 1;
  }
  std::printf("selftest: gate detects a %.0f%% regression; pass\n",
              3.0 * tolerance * 100.0);
  return 0;
}

int Run(int argc, const char* const* argv) {
  auto parsed = Flags::Parse(argc, argv,
                             {"out", "baseline", "tolerance", "scale",
                              "periods", "seed", "runtime-out",
                              "runtime-tolerance", "cluster-out",
                              "cluster-tolerance", "overhead-bin",
                              "selftest", "help"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const Flags& flags = parsed.value();
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const std::string out_path = flags.GetString("out", "BENCH_qos.json");
  const std::string baseline_path = flags.GetString("baseline", out_path);
  const double tolerance = flags.GetDouble("tolerance", 0.05);
  const double scale = flags.GetDouble("scale", 0.02);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const auto periods =
      static_cast<std::size_t>(flags.GetInt("periods", 0));

  const bench::BenchArgs args = GateArgs(scale, seed, periods);
  std::vector<FigureResult> figures = {RunFig09(args), RunFig10(args),
                                       RunFig16(args)};
  // Control-plane survivability figures (DESIGN.md §15).
  const FigureResult survive_degraded = RunSurviveDegraded(args);
  const FigureResult survive_recover = RunSurviveRecover(args);
  figures.push_back(survive_degraded);
  figures.push_back(survive_recover);
#if HAECHI_WATCHDOG_ENABLED
  // Recovery-time figures: one shortfall chaos run per controller policy.
  // The off run pins the open-loop baseline; the armed runs must close
  // the loop (shape gate below), and their periods_to_recover lands in
  // the JSON so the figure history tracks control-plane latency.
  const FigureResult recovery_off =
      RunRecovery(args, core::control::Policy::kOff);
  const FigureResult recovery_conservative =
      RunRecovery(args, core::control::Policy::kConservative);
  const FigureResult recovery_aggressive =
      RunRecovery(args, core::control::Policy::kAggressive);
  figures.push_back(recovery_off);
  figures.push_back(recovery_conservative);
  figures.push_back(recovery_aggressive);
#endif

  if (flags.GetBool("selftest", false)) {
    return SelfTest(figures, scale, tolerance, seed);
  }

  int regressions = 0;
  const auto baseline = obs::ReadFileToString(baseline_path);
  if (baseline.ok()) {
    regressions = Compare(figures, baseline.value(), tolerance);
  } else {
    std::printf("no baseline at %s; seeding it\n", baseline_path.c_str());
  }

  // Survivability shape gates. Degraded mode must actually engage when
  // the monitor dies (and stay within its bound); after a checkpoint
  // recovery the guarantee must come back within a handful of periods —
  // recovery_backlog_periods of shed backlog, the re-sync discount, and
  // one period of slack.
  if (survive_degraded.detail > 0.0) {
    std::printf("%-26s %10.1f periods  ok (degraded mode engaged)\n",
                survive_degraded.name.c_str(), survive_degraded.detail);
  } else {
    std::printf("%-26s %10s          REGRESSION (monitor died but no "
                "client degraded)\n",
                survive_degraded.name.c_str(), "-");
    ++regressions;
  }
  if (survive_recover.detail > 0.0 && survive_recover.detail <= 3.0) {
    std::printf("%-26s %10.0f periods  ok (bounded recovery)\n",
                survive_recover.name.c_str(), survive_recover.detail);
  } else {
    std::printf("%-26s %10.0f periods  REGRESSION (guarantee not back "
                "within 3 periods of the crash)\n",
                survive_recover.name.c_str(), survive_recover.detail);
    ++regressions;
  }

#if HAECHI_WATCHDOG_ENABLED
  // Shape gate: an armed controller must recover the scripted shortfall;
  // the open loop must not (if it "recovers" the chaos stopped being
  // chaos and the figure lost its meaning).
  for (const FigureResult* f :
       {&recovery_conservative, &recovery_aggressive}) {
    if (f->detail > 0.0) {
      std::printf("%-26s %10.0f periods  ok (loop closed)\n",
                  f->name.c_str(), f->detail);
    } else {
      std::printf("%-26s %10s          REGRESSION (armed controller never "
                  "recovered)\n",
                  f->name.c_str(), "-");
      ++regressions;
    }
  }
  if (recovery_off.detail > 0.0) {
    std::printf("%-26s %10.0f periods  REGRESSION (open loop reported "
                "recovery)\n",
                recovery_off.name.c_str(), recovery_off.detail);
    ++regressions;
  }
#endif

  // Writes one gate's JSON; false (after saying so) when it cannot.
  const auto write_json = [](const std::string& path, const std::string& json) {
    if (!obs::WriteStringToFile(path, json).ok()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  if (!write_json(out_path, ToJson(figures, scale, tolerance, seed))) return 2;

  // Threads-mode gate (--runtime=threads backend), in its own JSON with
  // its own (wider) tolerance since the runtime is wall-clock scheduled.
  const std::string runtime_out =
      flags.GetString("runtime-out", "BENCH_runtime.json");
  if (!runtime_out.empty()) {
    const double runtime_tolerance =
        flags.GetDouble("runtime-tolerance", 0.25);
    const std::vector<FigureResult> runtime_figures = {
        RunRuntimeThreads(seed)};
    const auto runtime_baseline = obs::ReadFileToString(runtime_out);
    if (runtime_baseline.ok()) {
      regressions += Compare(runtime_figures, runtime_baseline.value(),
                             runtime_tolerance);
    } else {
      std::printf("no baseline at %s; seeding it\n", runtime_out.c_str());
    }
    if (!write_json(runtime_out, ToJson(runtime_figures, 1.0,
                                        runtime_tolerance, seed))) {
      return 2;
    }
  }

  // Cluster borrow gate: drift bands for both policies, plus the strict
  // shape requirement that adaptive borrowing beats borrowing off.
  const std::string cluster_out =
      flags.GetString("cluster-out", "BENCH_cluster.json");
  if (!cluster_out.empty()) {
    const double cluster_tolerance =
        flags.GetDouble("cluster-tolerance", 0.05);
    const FigureResult off =
        RunClusterBorrow(args, cluster::BorrowPolicy::kOff);
    const FigureResult adaptive =
        RunClusterBorrow(args, cluster::BorrowPolicy::kAdaptive);
    const std::vector<FigureResult> cluster_figures = {off, adaptive};
    const auto cluster_baseline = obs::ReadFileToString(cluster_out);
    if (cluster_baseline.ok()) {
      regressions += Compare(cluster_figures, cluster_baseline.value(),
                             cluster_tolerance);
    } else {
      std::printf("no baseline at %s; seeding it\n", cluster_out.c_str());
    }
    if (adaptive.total_kiops > off.total_kiops) {
      std::printf("%-26s %10.1f > %.1f KIOPS  ok (adaptive strictly "
                  "improves attainment)\n",
                  "cluster_borrow_shape", adaptive.total_kiops,
                  off.total_kiops);
    } else {
      std::printf("%-26s %10.1f <= %.1f KIOPS  REGRESSION (adaptive must "
                  "strictly improve attainment)\n",
                  "cluster_borrow_shape", adaptive.total_kiops,
                  off.total_kiops);
      ++regressions;
    }
    if (!write_json(cluster_out, ToJson(cluster_figures, scale,
                                        cluster_tolerance, seed))) {
      return 2;
    }
  }

  const std::string overhead_bin = flags.GetString("overhead-bin", "");
  if (!overhead_bin.empty()) {
    // Refresh the tracing-overhead sweep, skipping the microbenchmarks.
    // The tracing-delta percentages are wall-clock based and only
    // regenerated, but the span-pipeline delta is gate-checked below
    // against the bound the sweep itself writes (span_delta_gate_percent,
    // a compiled-in constant, so the committed bound survives refreshes).
    const std::string cmd =
        overhead_bin + " --benchmark_filter=DoesNotExistAnywhere";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "bench_overhead sweep failed: %s\n",
                   cmd.c_str());
      return 2;
    }
    const auto overhead_json = obs::ReadFileToString("BENCH_overhead.json");
    if (overhead_json.ok() &&
        overhead_json.value().find("\"trace_compiled\": true") !=
            std::string::npos) {
      const auto field = [&](const char* name, double& out) {
        const std::string key = std::string("\"") + name + "\": ";
        const std::size_t at = overhead_json.value().find(key);
        if (at == std::string::npos) return false;
        out = std::strtod(overhead_json.value().c_str() + at + key.size(),
                          nullptr);
        return true;
      };
      double span_delta = 0.0, span_gate = 0.0;
      if (field("span_delta_percent", span_delta) &&
          field("span_delta_gate_percent", span_gate)) {
        const bool ok = span_delta <= span_gate;
        std::printf("%-26s %9.2f%% slowdown  gate %.1f%%  %s\n",
                    "span_pipeline_overhead", span_delta, span_gate,
                    ok ? "ok" : "REGRESSION");
        regressions += !ok;
      }
    }
  }

  return regressions == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
