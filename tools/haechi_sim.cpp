// haechi_sim — command-line experiment runner.
//
// Runs a single Haechi experiment described entirely by flags and prints a
// per-client summary table (optionally exporting the per-period series as
// CSV). Lets users explore configurations beyond the canned paper figures
// without writing C++.
//
// Examples:
//   # the paper's Exp 2A zipf at 5% scale
//   haechi_sim --mode=haechi --distribution=zipf --reserved-pct=90
//
//   # 4 tenants, one limited, bare system comparison
//   haechi_sim --mode=bare --clients=4 --pattern=burst
//
//   # export plot data
//   haechi_sim --csv=/tmp/run.csv --periods=30 --scale=1
//
//   # 4-node cluster, 2 tenants, adaptive cross-server borrowing
//   haechi_sim --cluster=4 --tenants=2 --borrow=adaptive
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "cluster/borrow.hpp"
#include "common/flags.hpp"
#include "harness/cluster_experiment.hpp"
#include "harness/experiment.hpp"
#include "harness/runtime_experiment.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"
#include "workload/distributions.hpp"

using namespace haechi;

namespace {

constexpr const char* kUsage = R"(haechi_sim - run one Haechi QoS experiment

flags (all optional):
  --mode=haechi|basic|bare   QoS mechanism            [haechi]
  --runtime=sim|threads      backend: discrete-event simulator, or real
                             threads on shared memory (wall-clock; results
                             are statistically, not bitwise, reproducible;
                             haechi/basic modes only)                 [sim]
  --shards=K                 threads only: split the global token pool
                             across K cache-line shards (monitor
                             rebalances them on its check tick)         [1]
  --fetch-batch=B            one remote FAA draws B token batches
                             (doorbell-style chaining)                  [1]
  --workers=N                threads only: worker threads multiplexing
                             the client I/O loops (0 = one per client)  [0]
  --cluster=D                sharded deployment across D data nodes with
                             the cluster coordinator (sim runtime,
                             haechi mode only; 0 = single node)          [0]
  --tenants=T                cluster only: stripe clients over T tenant
                             envelopes                                   [1]
  --borrow=off|static|adaptive   cluster only: cross-server token
                             borrowing policy                          [off]
  --monitor-crash-at=S       single-node only: crash the QoS monitor
                             process at S seconds (control region and KV
                             data path stay up; clients fall back to
                             reservation-only degraded pacing)
  --monitor-recover-at=S     restart the crashed monitor at S seconds: it
                             restores provisioning from its last in-region
                             checkpoint, reconciles live report slots and
                             re-syncs the clients (required with
                             --runtime=threads)
  --join-at=S                cluster only: build the last data node outside
                             the membership and join it at S seconds
  --leave-at=S               cluster only (D >= 2): node 1 leaves at S
                             seconds, migrating its splits sum-neutrally
  --standby=S                cluster only: promote the standby coordinator
                             at S seconds (restores the last rebalance
                             checkpoint; outstanding loans are written off)
  --clients=N                number of clients        [10]
  --distribution=uniform|zipf|spike   reservations    [zipf]
  --reserved-pct=P           % of capacity reserved   [90]
  --pattern=open|burst|rate  request pattern          [open]
  --write-fraction=F         YCSB write mix           [0]
  --demand-factor=F          demand = F * (R + pool)  [1.0]
  --limit-factor=F           limit = F * R (0 = none) [0]
  --periods=N                measured QoS periods     [8]
  --warmup-seconds=S         warm-up                  [2]
  --scale=F                  capacity scale           [0.05]
  --seed=N                   RNG seed                 [42]
  --background-pct=P         background load, % of capacity [0]
  --csv=PATH                 export per-period series
  --trace-out=PATH           export the QoS event trace (.json = Perfetto,
                             anything else = CSV for haechi_audit)
  --trace-detail             also trace per-I/O RDMA/KV events
  --trace-ring=N             per-actor trace ring capacity, events
                             [65536; 2097152 with --runtime=threads]
  --metrics-out=PATH         export per-period metrics snapshots as CSV
  --prom-out=PATH            export the same snapshots as Prometheus text
                             exposition (haechi_* series, period label)
  --alerts-out=PATH          run the online SLO watchdog; write alerts as
                             JSONL (one alert object per line)
  --status-interval=N        print a live status line to stderr every N
                             QoS periods (implies the watchdog; with
                             --runtime=threads the lines are replayed from
                             the trace after the run, with per-shard pool
                             occupancy when --shards > 1)
  --controller=off|conservative|aggressive   closed-loop control plane:
                             react to watchdog alerts with sum-neutral
                             corrective actions at period boundaries
                             (implies the watchdog)                    [off]
  --control-rules=LIST       rules the controller may act on: a subset of
                             w1,w5,w6,lease, or all|none              [all]
  --control-api=P:POLICY[,P:POLICY...]   scripted runtime policy swaps:
                             at measured period P switch the running
                             controller to POLICY
  --progress-events=N        stderr heartbeat every N simulator events
)";

/// Prints the per-client summary table shared by both runtimes; returns
/// the number of clients whose minimum per-period completions met their
/// reservation.
int PrintClientTable(const stats::PeriodSeries& series,
                     const std::vector<std::int64_t>& reservations,
                     std::size_t periods, double scale) {
  stats::Table table({"client", "reservation", "mean/period", "min/period",
                      "SLO"});
  int met = 0;
  for (std::uint32_t c = 0; c < reservations.size(); ++c) {
    const auto id = MakeClientId(c);
    const double mean = static_cast<double>(series.ClientTotal(id)) /
                        static_cast<double>(periods);
    const auto min = series.ClientMinPerPeriod(id);
    const bool ok = min >= reservations[c] * 98 / 100;
    met += ok;
    auto norm = [&](double v) {
      return stats::Table::Num(v / 1e3 / scale);
    };
    table.AddRow({"C" + std::to_string(c + 1),
                  norm(static_cast<double>(reservations[c])), norm(mean),
                  norm(static_cast<double>(min)), ok ? "met" : "MISSED"});
  }
  table.Print();
  return met;
}

/// Controller summary goes to stderr next to the watchdog line (stdout
/// stays byte-identical with and without the control plane).
void PrintControllerSummary(const core::control::QosController* controller) {
  if (controller == nullptr) return;
  const auto& s = controller->stats();
  const std::string policy{core::control::ToString(controller->policy())};
  std::fprintf(
      stderr,
      "controller: policy=%s, %llu alert(s) -> %llu resize(s), "
      "%llu eta-scaling(s), %llu forced conversion(s), %llu readmit(s); "
      "%llu recovery(ies)\n",
      policy.c_str(), static_cast<unsigned long long>(s.alerts),
      static_cast<unsigned long long>(s.resizes),
      static_cast<unsigned long long>(s.eta_scalings),
      static_cast<unsigned long long>(s.forced_conversions),
      static_cast<unsigned long long>(s.readmits),
      static_cast<unsigned long long>(s.recoveries));
}

int Run(int argc, const char* const* argv) {
  auto parsed = Flags::Parse(
      argc, argv,
      {"mode", "runtime", "shards", "fetch-batch", "workers", "cluster",
       "tenants", "borrow", "monitor-crash-at", "monitor-recover-at",
       "join-at", "leave-at", "standby", "clients",
       "distribution", "reserved-pct", "pattern", "write-fraction",
       "demand-factor", "limit-factor", "periods", "warmup-seconds", "scale",
       "seed", "background-pct", "csv", "trace-out", "trace-detail",
       "trace-ring",
       "metrics-out", "prom-out", "alerts-out", "status-interval",
       "controller", "control-rules", "control-api",
       "progress-events", "help"});
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

  harness::ExperimentConfig config;
  const std::string mode = flags.GetString("mode", "haechi");
  if (mode == "haechi") {
    config.mode = harness::Mode::kHaechi;
  } else if (mode == "basic") {
    config.mode = harness::Mode::kBasicHaechi;
  } else if (mode == "bare") {
    config.mode = harness::Mode::kBare;
  } else {
    std::fprintf(stderr, "unknown --mode=%s\n%s", mode.c_str(), kUsage);
    return 2;
  }

  config.net.capacity_scale = flags.GetDouble("scale", 0.05);
  config.warmup = Seconds(flags.GetInt("warmup-seconds", 2));
  config.measure_periods =
      static_cast<std::size_t>(flags.GetInt("periods", 8));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.qos.token_batch =
      std::max<std::int64_t>(10, static_cast<std::int64_t>(
                                     1000 * config.net.capacity_scale));

  const auto clients =
      static_cast<std::size_t>(flags.GetInt("clients", 10));
  const auto cap = static_cast<std::int64_t>(
      config.net.GlobalCapacityIops() * ToSeconds(config.qos.period));
  const auto local =
      static_cast<std::int64_t>(config.net.LocalCapacityIops());
  const std::int64_t reserved =
      cap * flags.GetInt("reserved-pct", 90) / 100;
  const std::int64_t pool = cap - reserved;

  const std::string distribution = flags.GetString("distribution", "zipf");
  std::vector<std::int64_t> reservations;
  if (distribution == "uniform") {
    reservations = workload::UniformShare(reserved, clients);
  } else if (distribution == "zipf") {
    // The paper pairs clients into groups; with an odd client count fall
    // back to one group per client.
    const std::size_t groups =
        clients % 2 == 0 ? std::max<std::size_t>(1, clients / 2) : clients;
    reservations = workload::ZipfGroupShare(reserved, clients, groups, 0.6);
  } else if (distribution == "spike") {
    const std::size_t hot = std::max<std::size_t>(1, clients / 3);
    const std::int64_t hot_each = std::min(
        local, reserved / static_cast<std::int64_t>(hot) * 2 / 3);
    const std::int64_t cold_each =
        (reserved - hot_each * static_cast<std::int64_t>(hot)) /
        static_cast<std::int64_t>(clients - hot);
    reservations = workload::SpikeShare(clients, hot, hot_each, cold_each);
  } else {
    std::fprintf(stderr, "unknown --distribution=%s\n%s",
                 distribution.c_str(), kUsage);
    return 2;
  }

  const std::string pattern = flags.GetString("pattern", "open");
  workload::RequestPattern request_pattern;
  if (pattern == "open") {
    request_pattern = workload::RequestPattern::kOpenLoop;
  } else if (pattern == "burst") {
    request_pattern = workload::RequestPattern::kBurst;
  } else if (pattern == "rate") {
    request_pattern = workload::RequestPattern::kConstantRate;
  } else {
    std::fprintf(stderr, "unknown --pattern=%s\n%s", pattern.c_str(),
                 kUsage);
    return 2;
  }

  const double demand_factor = flags.GetDouble("demand-factor", 1.0);
  const double limit_factor = flags.GetDouble("limit-factor", 0.0);
  for (auto r : reservations) {
    r = std::min(r, local);  // keep within the admissible region
    harness::ClientSpec spec;
    spec.reservation = r;
    spec.demand = static_cast<std::int64_t>(
        static_cast<double>(r + pool) * demand_factor);
    spec.pattern = request_pattern;
    spec.write_fraction = flags.GetDouble("write-fraction", 0.0);
    if (limit_factor > 0) {
      spec.limit = static_cast<std::int64_t>(static_cast<double>(r) *
                                             limit_factor);
    }
    config.clients.push_back(spec);
  }

  const std::int64_t background_pct = flags.GetInt("background-pct", 0);
  if (background_pct > 0) {
    config.background_demand =
        cap * background_pct / 100 / static_cast<std::int64_t>(clients);
  }

  config.trace.out_path = flags.GetString("trace-out", "");
  config.trace.metrics_out = flags.GetString("metrics-out", "");
  config.trace.prom_out = flags.GetString("prom-out", "");
  config.trace.detail = flags.Has("trace-detail");
  config.trace.enabled = !config.trace.out_path.empty() ||
                         !config.trace.metrics_out.empty() ||
                         !config.trace.prom_out.empty();
  // Rings grow lazily, so a generous capacity only costs what a run
  // actually emits. The threads runtime sustains two orders of magnitude
  // more I/O than the old one-thread-per-client design, so its protocol
  // event streams outgrow the sim default; size the ring so A1 (dense
  // per-actor sequences) holds on a full CLI run.
  const std::int64_t trace_ring = flags.GetInt(
      "trace-ring",
      flags.GetString("runtime", "sim") == "threads" ? (1 << 21) : (1 << 16));
  if (trace_ring < 1) {
    std::fprintf(stderr, "--trace-ring must be >= 1\n");
    return 2;
  }
  config.trace.ring_capacity = static_cast<std::size_t>(trace_ring);

  const std::string alerts_out = flags.GetString("alerts-out", "");
  const auto status_interval =
      static_cast<std::uint32_t>(flags.GetInt("status-interval", 0));
#if HAECHI_WATCHDOG_ENABLED
  config.watchdog.alerts_out = alerts_out;
  config.watchdog.status_interval = status_interval;
#else
  if (!alerts_out.empty() || status_interval > 0) {
    std::fprintf(stderr,
                 "warning: built with HAECHI_WATCHDOG=OFF; "
                 "--alerts-out/--status-interval are ignored\n");
  }
#endif

  // --- closed-loop controller flags --------------------------------------
  const std::string controller_name = flags.GetString("controller", "off");
  if (!core::control::PolicyFromName(controller_name,
                                     config.control.policy)) {
    std::fprintf(stderr, "unknown --controller=%s\n%s",
                 controller_name.c_str(), kUsage);
    return 2;
  }
  const auto rule_mask =
      core::control::ParseRuleMask(flags.GetString("control-rules", "all"));
  if (!rule_mask.ok()) {
    std::fprintf(stderr, "--control-rules: %s\n%s",
                 rule_mask.status().ToString().c_str(), kUsage);
    return 2;
  }
  config.control.rules = rule_mask.value();
  const std::string control_api = flags.GetString("control-api", "");
  for (std::size_t pos = 0; pos < control_api.size();) {
    std::size_t comma = control_api.find(',', pos);
    if (comma == std::string::npos) comma = control_api.size();
    const std::string entry = control_api.substr(pos, comma - pos);
    const std::size_t colon = entry.find(':');
    core::control::Policy swap_policy{};
    char* period_end = nullptr;
    const unsigned long swap_period =
        std::strtoul(entry.c_str(), &period_end, 10);
    if (colon == std::string::npos || colon == 0 ||
        period_end != entry.c_str() + colon ||
        !core::control::PolicyFromName(entry.substr(colon + 1),
                                       swap_policy)) {
      std::fprintf(stderr,
                   "--control-api expects PERIOD:POLICY[,PERIOD:POLICY...]"
                   ", got \"%s\"\n%s",
                   entry.c_str(), kUsage);
      return 2;
    }
    config.control.api.emplace_back(
        static_cast<std::uint32_t>(swap_period), swap_policy);
    pos = comma + 1;
  }
#if !HAECHI_WATCHDOG_ENABLED
  if (config.control.armed()) {
    std::fprintf(stderr,
                 "warning: built with HAECHI_WATCHDOG=OFF; the controller "
                 "rides the watchdog and is ignored\n");
    config.control = {};
  }
#endif

  const auto periods = config.measure_periods;
  const auto scale = config.net.capacity_scale;
  const std::string csv_path_flag = flags.GetString("csv", "");
  const std::string trace_path_flag = flags.GetString("trace-out", "");

  // --- cluster mode: D data nodes behind the cluster coordinator ---------
  const auto cluster_nodes = static_cast<std::size_t>(
      std::max<std::int64_t>(flags.GetInt("cluster", 0), 0));
  const auto tenant_count = static_cast<std::size_t>(
      std::max<std::int64_t>(flags.GetInt("tenants", 1), 1));
  const std::string borrow = flags.GetString("borrow", "off");
  if (cluster_nodes == 0 && (flags.Has("tenants") || flags.Has("borrow"))) {
    std::fprintf(stderr, "--tenants/--borrow require --cluster=D\n");
    return 2;
  }

  // ---- control-plane survivability flags (DESIGN.md §15) -----------------
  const double monitor_crash_sec = flags.GetDouble("monitor-crash-at", -1.0);
  const double monitor_recover_sec =
      flags.GetDouble("monitor-recover-at", -1.0);
  const double join_sec = flags.GetDouble("join-at", -1.0);
  const double leave_sec = flags.GetDouble("leave-at", -1.0);
  const double standby_sec = flags.GetDouble("standby", -1.0);
  const bool has_membership_flags =
      flags.Has("join-at") || flags.Has("leave-at") || flags.Has("standby");
  if (cluster_nodes == 0 && has_membership_flags) {
    std::fprintf(stderr, "--join-at/--leave-at/--standby require --cluster=D\n");
    return 2;
  }
  if (cluster_nodes > 0 &&
      (flags.Has("monitor-crash-at") || flags.Has("monitor-recover-at"))) {
    std::fprintf(stderr,
                 "--monitor-crash-at/--monitor-recover-at run on "
                 "single-node deployments, not --cluster (use --standby for "
                 "cluster control-plane faults)\n");
    return 2;
  }
  if (flags.Has("monitor-recover-at") && !flags.Has("monitor-crash-at")) {
    std::fprintf(stderr, "--monitor-recover-at requires --monitor-crash-at\n");
    return 2;
  }
  if (flags.Has("monitor-crash-at") && monitor_crash_sec < 0) {
    std::fprintf(stderr, "--monitor-crash-at must be >= 0 seconds\n");
    return 2;
  }
  if (flags.Has("monitor-recover-at") &&
      monitor_recover_sec <= monitor_crash_sec) {
    std::fprintf(stderr,
                 "--monitor-recover-at must be later than "
                 "--monitor-crash-at\n");
    return 2;
  }
  if (flags.Has("leave-at") && cluster_nodes < 2) {
    std::fprintf(stderr, "--leave-at requires --cluster=D with D >= 2\n");
    return 2;
  }
  if ((flags.Has("join-at") && join_sec < 0) ||
      (flags.Has("leave-at") && leave_sec < 0) ||
      (flags.Has("standby") && standby_sec < 0)) {
    std::fprintf(stderr,
                 "--join-at/--leave-at/--standby must be >= 0 seconds\n");
    return 2;
  }
  const auto FromSeconds = [](double sec) {
    return static_cast<SimTime>(sec * 1e9);
  };
  const std::int64_t fetch_batch = flags.GetInt("fetch-batch", 1);
  if (fetch_batch < 1) {
    std::fprintf(stderr, "--fetch-batch must be >= 1\n");
    return 2;
  }
  config.qos.fetch_batch = fetch_batch;
  if (cluster_nodes > 0) {
    if (flags.GetString("runtime", "sim") != "sim" ||
        config.mode != harness::Mode::kHaechi) {
      std::fprintf(stderr,
                   "--cluster runs on --runtime=sim --mode=haechi only\n");
      return 2;
    }
    if (background_pct > 0 || !csv_path_flag.empty()) {
      std::fprintf(stderr,
                   "--cluster does not support --background-pct or --csv\n");
      return 2;
    }
    cluster::BorrowPolicy policy = cluster::BorrowPolicy::kOff;
    if (borrow == "static") {
      policy = cluster::BorrowPolicy::kStatic;
    } else if (borrow == "adaptive") {
      policy = cluster::BorrowPolicy::kAdaptive;
    } else if (borrow != "off") {
      std::fprintf(stderr, "unknown --borrow=%s\n%s", borrow.c_str(),
                   kUsage);
      return 2;
    }

    harness::ClusterExperimentConfig cc;
    cc.data_nodes = cluster_nodes;
    cc.net = config.net;
    cc.qos = config.qos;
    cc.warmup = config.warmup;
    cc.measure_periods = config.measure_periods;
    cc.seed = config.seed;
    cc.trace = config.trace;
    cc.watchdog = config.watchdog;
    cc.control = config.control;
    cc.cluster.borrow.policy = policy;
    // Borrow knobs scale with the scenario, not the wall clock.
    cc.cluster.dry_watermark = config.qos.token_batch * 5;
    cc.cluster.lender_floor = config.qos.token_batch * 10;
    cc.cluster.borrow.quota = std::max<std::int64_t>(cap / 20, 1);
    cc.cluster.borrow.min_quota = config.qos.token_batch;
    cc.cluster.borrow.max_quota = std::max<std::int64_t>(cap / 4, 1);
    if (flags.Has("join-at")) cc.join_at = FromSeconds(join_sec);
    if (flags.Has("leave-at")) cc.leave_at = FromSeconds(leave_sec);
    if (flags.Has("standby")) cc.failover_at = FromSeconds(standby_sec);

    // Stripe clients round-robin over the tenants, and lean each client's
    // demand on a home node (i mod D) so the coordinator's splits — and
    // with --borrow, the cross-server loans — have skew to chase.
    std::vector<std::int64_t> tenant_sums(tenant_count, 0);
    for (std::size_t i = 0; i < reservations.size(); ++i) {
      harness::ClusterClientSpec spec;
      spec.tenant = i % tenant_count;
      spec.reservation = std::min<std::int64_t>(
          reservations[i],
          local * static_cast<std::int64_t>(cluster_nodes));
      spec.pattern = request_pattern;
      const auto demand = static_cast<std::int64_t>(
          static_cast<double>(spec.reservation +
                              pool / static_cast<std::int64_t>(clients)) *
          demand_factor);
      spec.demand_per_node.assign(cluster_nodes, 0);
      const std::size_t home = i % cluster_nodes;
      if (cluster_nodes == 1) {
        spec.demand_per_node[0] = demand;
      } else {
        spec.demand_per_node[home] = demand * 85 / 100;
        const std::int64_t rest =
            (demand - demand * 85 / 100) /
            static_cast<std::int64_t>(cluster_nodes - 1);
        for (std::size_t d = 0; d < cluster_nodes; ++d) {
          if (d != home) spec.demand_per_node[d] = rest;
        }
      }
      cc.clients.push_back(std::move(spec));
    }

    // Reservations were drawn against the cluster-wide aggregate, but
    // placement is per node: each shard admits at most its 1/D capacity
    // share, and a client consumes a node's split only up to its demand
    // there. Scale the whole distribution down (shape preserved) until
    // the demand-weighted reserved load on the hottest node fits inside
    // its share, leaving headroom for pool traffic.
    {
      const double node_cap =
          static_cast<double>(cap) / static_cast<double>(cluster_nodes);
      std::vector<double> node_load(cluster_nodes, 0.0);
      for (const auto& spec : cc.clients) {
        std::int64_t total_demand = 0;
        for (const std::int64_t d : spec.demand_per_node) {
          total_demand += d;
        }
        if (total_demand == 0) continue;
        for (std::size_t d = 0; d < cluster_nodes; ++d) {
          node_load[d] += static_cast<double>(spec.reservation) *
                          static_cast<double>(spec.demand_per_node[d]) /
                          static_cast<double>(total_demand);
        }
      }
      const double hottest =
          *std::max_element(node_load.begin(), node_load.end());
      const double overload = hottest / (0.85 * node_cap);
      if (overload > 1.0) {
        for (auto& spec : cc.clients) {
          spec.reservation = static_cast<std::int64_t>(
              static_cast<double>(spec.reservation) / overload);
        }
      }
      if (cc.join_at >= 0 && cluster_nodes >= 2) {
        // Until the scripted join, admission splits each reservation
        // uniformly over the D-1 initially-active nodes; that heavier
        // per-node uniform load must fit the same 85% headroom too.
        std::int64_t total = 0;
        for (const auto& spec : cc.clients) total += spec.reservation;
        const double uniform = static_cast<double>(total) /
                               static_cast<double>(cluster_nodes - 1);
        const double join_overload = uniform / (0.85 * node_cap);
        if (join_overload > 1.0) {
          for (auto& spec : cc.clients) {
            spec.reservation = static_cast<std::int64_t>(
                static_cast<double>(spec.reservation) / join_overload);
          }
        }
      }
    }
    for (const auto& spec : cc.clients) {
      tenant_sums[spec.tenant] += spec.reservation;
    }
    for (const std::int64_t sum : tenant_sums) {
      cc.tenants.push_back({sum, 0});
    }

    harness::ClusterExperiment experiment(std::move(cc));
    harness::ClusterExperimentResult result = experiment.Run();
    const auto& run_cfg = experiment.config();

    std::printf("mode=haechi cluster=%zu tenants=%zu borrow=%s clients=%zu "
                "capacity=%.0f KIOPS/node (1/%zu share of the %.0f-KIOPS "
                "aggregate, full-scale equivalent)\n\n",
                cluster_nodes, tenant_count, borrow.c_str(), clients,
                static_cast<double>(cap) /
                    static_cast<double>(cluster_nodes) / 1e3 / scale,
                cluster_nodes, static_cast<double>(cap) / 1e3 / scale);
    stats::Table table({"client", "tenant", "reservation", "mean/period",
                        "min/period", "SLO"});
    int met = 0;
    for (std::uint32_t c = 0; c < run_cfg.clients.size(); ++c) {
      const auto id = MakeClientId(c);
      std::int64_t total = 0;
      std::int64_t min = std::numeric_limits<std::int64_t>::max();
      for (std::size_t p = 0; p < periods; ++p) {
        std::int64_t served = 0;
        for (std::size_t d = 0; d < cluster_nodes; ++d) {
          served += result.node_series[d].At(p, id);
        }
        total += served;
        min = std::min(min, served);
      }
      const std::int64_t r = run_cfg.clients[c].reservation;
      const bool ok = min >= r * 98 / 100;
      met += ok;
      auto norm = [&](double v) { return stats::Table::Num(v / 1e3 / scale); };
      table.AddRow({"C" + std::to_string(c + 1),
                    "T" + std::to_string(run_cfg.clients[c].tenant),
                    norm(static_cast<double>(r)),
                    norm(static_cast<double>(total) /
                         static_cast<double>(periods)),
                    norm(static_cast<double>(min)), ok ? "met" : "MISSED"});
    }
    table.Print();
    std::printf("\ntotal %.0f KIOPS; reservations met %d/%zu\n",
                result.total_kiops / scale, met, run_cfg.clients.size());
    std::printf("coordinator: %llu rebalances moved %llu tokens (%llu "
                "rejected); borrow %s: granted %lld, repaid %lld, "
                "outstanding %lld (%llu stale reports)\n",
                static_cast<unsigned long long>(
                    result.cluster_stats.rebalances),
                static_cast<unsigned long long>(
                    result.cluster_stats.tokens_moved),
                static_cast<unsigned long long>(
                    result.cluster_stats.rejected_moves),
                borrow.c_str(),
                static_cast<long long>(result.borrow_granted),
                static_cast<long long>(result.borrow_repaid),
                static_cast<long long>(result.borrow_outstanding),
                static_cast<unsigned long long>(
                    result.cluster_stats.stale_reports));
    if (!trace_path_flag.empty()) {
      std::printf(
          "trace written to %s (audit with: haechi_audit --trace=%s)\n",
          trace_path_flag.c_str(), trace_path_flag.c_str());
    }
#if HAECHI_WATCHDOG_ENABLED
    if (obs::SloWatchdog* watchdog = experiment.watchdog()) {
      std::fprintf(
          stderr,
          "watchdog: %zu alert(s) over %zu period(s), %zu critical%s%s\n",
          watchdog->alerts().size(), watchdog->periods_evaluated(),
          watchdog->CountAtLeast(obs::AlertSeverity::kCritical),
          alerts_out.empty() ? "" : ", written to ", alerts_out.c_str());
    }
    PrintControllerSummary(experiment.controller());
#endif
    return 0;
  }

  const std::string runtime = flags.GetString("runtime", "sim");
  if (runtime == "threads" && flags.Has("monitor-crash-at") &&
      !flags.Has("monitor-recover-at")) {
    // A threaded run must finish: a never-recovering monitor would park
    // the completion latch forever.
    std::fprintf(stderr,
                 "--monitor-crash-at with --runtime=threads requires "
                 "--monitor-recover-at\n");
    return 2;
  }
  const std::int64_t shards = flags.GetInt("shards", 1);
  const std::int64_t workers = flags.GetInt("workers", 0);
  // Pool shards and worker threads are transport knobs of the threaded
  // backend; the simulator models one remote pool word.
  if (runtime != "threads" && (shards != 1 || workers != 0)) {
    std::fprintf(stderr, "--shards/--workers require --runtime=threads\n");
    return 2;
  }
  if (runtime == "threads") {
    if (shards < 1 || workers < 0) {
      std::fprintf(stderr, "--shards must be >= 1, --workers >= 0\n");
      return 2;
    }
    config.qos.pool_shards = shards;
    config.runtime_workers = static_cast<std::size_t>(workers);
    if (config.mode == harness::Mode::kBare) {
      std::fprintf(stderr,
                   "--runtime=threads supports --mode=haechi|basic only\n");
      return 2;
    }
    if (config.background_demand > 0) {
      std::fprintf(stderr,
                   "--runtime=threads does not support --background-pct\n");
      return 2;
    }
#if HAECHI_WATCHDOG_ENABLED
    // The live watchdog (and the controller riding it) runs on threads too:
    // the recorder tap is serialised through a mutex. The status line stays
    // a post-run trace replay so sharded runs can show per-shard pool
    // occupancy; force a recorder so there is a trace to replay, and keep
    // the live tap free of the status callback.
    if (status_interval > 0) config.trace.enabled = true;
    config.watchdog.status_interval = 0;
#else
    if (!alerts_out.empty() || status_interval > 0) {
      std::fprintf(stderr,
                   "warning: built with HAECHI_WATCHDOG=OFF; "
                   "--alerts-out/--status-interval are ignored\n");
    }
    config.watchdog = {};
#endif
    // The threaded fabric has no analytic model: feed it the sim model's
    // calibrated capacities so both runtimes run the same token budget.
    config.profiled_global_iops = config.net.GlobalCapacityIops();
    config.profiled_local_iops = config.net.LocalCapacityIops();
    if (flags.Has("monitor-crash-at")) {
      config.faults.MonitorCrashAt(0, FromSeconds(monitor_crash_sec),
                                   FromSeconds(monitor_recover_sec));
    }
    harness::ThreadedExperiment experiment(std::move(config));
    harness::ThreadedExperimentResult result = experiment.Run();

#if HAECHI_WATCHDOG_ENABLED
    if (status_interval > 0 && experiment.recorder() != nullptr) {
      obs::SloWatchdog watchdog;
      watchdog.SetStatusFn(
          [](const obs::PeriodStatus& status) {
            std::fprintf(stderr, "%s\n",
                         obs::FormatStatusLine(status).c_str());
          },
          status_interval);
      for (const obs::TraceEvent& event : experiment.recorder()->Merged()) {
        watchdog.OnEvent(event);
      }
      (void)watchdog.Finish();
    }
    if (obs::SloWatchdog* watchdog = experiment.watchdog()) {
      std::fprintf(
          stderr,
          "watchdog: %zu alert(s) over %zu period(s), %zu critical%s%s\n",
          watchdog->alerts().size(), watchdog->periods_evaluated(),
          watchdog->CountAtLeast(obs::AlertSeverity::kCritical),
          alerts_out.empty() ? "" : ", written to ", alerts_out.c_str());
    }
    PrintControllerSummary(experiment.controller());
#endif

    std::printf("mode=%s runtime=threads shards=%lld fetch-batch=%lld "
                "workers=%lld distribution=%s clients=%zu "
                "capacity=%.0f KIOPS (full-scale equivalent)\n\n",
                mode.c_str(), static_cast<long long>(shards),
                static_cast<long long>(fetch_batch),
                static_cast<long long>(workers), distribution.c_str(),
                clients, static_cast<double>(cap) / 1e3 / scale);
    const int met =
        PrintClientTable(result.series, result.reservations, periods, scale);
    std::printf("\ntotal %.0f KIOPS; reservations met %d/%zu; "
                "wall %.2fs\n",
                result.total_kiops / scale, met, result.reservations.size(),
                ToSeconds(result.wall_time));
    if (!csv_path_flag.empty()) {
      const Status s =
          stats::SeriesToCsv(result.series).WriteFile(csv_path_flag);
      if (!s.ok()) {
        std::fprintf(stderr, "csv export failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::printf("per-period series written to %s\n", csv_path_flag.c_str());
    }
    if (!trace_path_flag.empty()) {
      std::printf(
          "trace written to %s (audit with: haechi_audit --trace=%s)\n",
          trace_path_flag.c_str(), trace_path_flag.c_str());
    }
    return 0;
  }
  if (runtime != "sim") {
    std::fprintf(stderr, "unknown --runtime=%s\n%s", runtime.c_str(), kUsage);
    return 2;
  }

  if (flags.Has("monitor-crash-at")) {
    config.faults.MonitorCrashAt(0, FromSeconds(monitor_crash_sec),
                                 flags.Has("monitor-recover-at")
                                     ? FromSeconds(monitor_recover_sec)
                                     : kSimTimeMax);
  }
  harness::Experiment experiment(std::move(config));
  const std::int64_t progress_events = flags.GetInt("progress-events", 0);
  if (progress_events > 0) {
    experiment.simulator().SetProgressHook(
        static_cast<std::uint64_t>(progress_events),
        [](SimTime now, std::uint64_t events) {
          std::fprintf(stderr, "t=%.3fs events=%llu\n", ToSeconds(now),
                       static_cast<unsigned long long>(events));
        });
  }
  harness::ExperimentResult result = experiment.Run();

  std::printf("mode=%s distribution=%s pattern=%s clients=%zu "
              "capacity=%.0f KIOPS (full-scale equivalent)\n\n",
              mode.c_str(), distribution.c_str(), pattern.c_str(), clients,
              static_cast<double>(cap) / 1e3 / scale);
  const int met =
      PrintClientTable(result.series, result.reservations, periods, scale);
  std::printf("\ntotal %.0f KIOPS; reservations met %d/%zu; events %llu\n",
              result.total_kiops / scale, met, reservations.size(),
              static_cast<unsigned long long>(result.events_run));

  const std::string csv_path = csv_path_flag;
  if (!csv_path.empty()) {
    const Status s = stats::SeriesToCsv(result.series).WriteFile(csv_path);
    if (!s.ok()) {
      std::fprintf(stderr, "csv export failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("per-period series written to %s\n", csv_path.c_str());
  }
  const std::string trace_path = flags.GetString("trace-out", "");
  if (!trace_path.empty()) {
    // The audit consumes the CSV form; .json is for ui.perfetto.dev.
    if (trace_path.size() > 5 &&
        trace_path.compare(trace_path.size() - 5, 5, ".json") == 0) {
      std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                  trace_path.c_str());
    } else {
      std::printf(
          "trace written to %s (audit with: haechi_audit --trace=%s)\n",
          trace_path.c_str(), trace_path.c_str());
    }
  }
#if HAECHI_WATCHDOG_ENABLED
  // Watchdog summary goes to stderr: stdout stays byte-identical with and
  // without the watchdog, so plot scripts never see it.
  if (obs::SloWatchdog* watchdog = experiment.watchdog()) {
    std::fprintf(stderr,
                 "watchdog: %zu alert(s) over %zu period(s), %zu critical%s%s\n",
                 watchdog->alerts().size(), watchdog->periods_evaluated(),
                 watchdog->CountAtLeast(obs::AlertSeverity::kCritical),
                 alerts_out.empty() ? "" : ", written to ",
                 alerts_out.c_str());
  }
  PrintControllerSummary(experiment.controller());
#endif
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
