// Cluster experiment assembly: D data nodes (KV store + QoS monitor each)
// behind a cluster::ClusterCoordinator, clients striped across every node
// with one QoS engine per (client, node) pair, tenants enveloping the
// clients' cluster-wide reservations, and optional cross-server token
// borrowing.
//
// This is the cluster-mode counterpart of harness::Experiment and the
// entry point for `haechi_sim --cluster`, the cluster benches and the
// cluster tests. Tracing emits the cluster-shape events (kClusterConfig,
// kTenantSpec, kEngineBinding, kNodeCapacity) the audit needs to replay a
// multi-node run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/coordinator.hpp"
#include "core/engine.hpp"
#include "core/monitor.hpp"
#include "harness/experiment.hpp"
#include "harness/run_plane.hpp"
#include "kvstore/client.hpp"
#include "kvstore/server.hpp"
#include "net/model_params.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"
#include "stats/period_series.hpp"
#include "workload/generator.hpp"

namespace haechi::harness {

/// A tenant's cluster-wide QoS envelope.
struct ClusterTenantSpec {
  std::int64_t reservation = 0;  // R_t (I/Os per period, cluster-wide)
  std::int64_t limit = 0;        // L_t; 0 = unlimited
};

struct ClusterClientSpec {
  /// Index into ClusterExperimentConfig::tenants.
  std::size_t tenant = 0;
  /// Cluster-wide reservation (I/Os per period, summed over nodes).
  std::int64_t reservation = 0;
  std::int64_t limit = 0;  // per node; 0 = unlimited
  /// Demand per period directed at each data node.
  std::vector<std::int64_t> demand_per_node;
  workload::RequestPattern pattern = workload::RequestPattern::kOpenLoop;
};

struct ClusterExperimentConfig {
  std::size_t data_nodes = 2;
  std::vector<ClusterTenantSpec> tenants;
  std::vector<ClusterClientSpec> clients;

  net::ModelParams net;
  core::QosConfig qos;
  cluster::ClusterCoordinator::Config cluster;

  std::uint64_t records = 4096;
  SimDuration warmup = Seconds(2);
  std::size_t measure_periods = 8;
  std::uint64_t seed = 42;

  /// Optional demand shift: at `shift_at` (absolute sim time) every
  /// client's per-node demand switches to `shifted_demand[client][node]`.
  SimTime shift_at = -1;
  std::vector<std::vector<std::int64_t>> shifted_demand;

  /// Scripted whole-client crash: at crash_at the client's node fails and
  /// its engines/generators stop mid-flight. Every monitor's report lease
  /// independently discovers the silence; the first one to fire triggers
  /// the coordinator's cluster-wide purge.
  struct ClientCrash {
    std::size_t client = 0;
    SimTime crash_at = 0;
  };
  std::vector<ClientCrash> client_crashes;

  /// Membership & failover script (DESIGN.md §15). `join_at >= 0` builds
  /// the last data node inactive (admission places no reservation there)
  /// and activates it at that time; `leave_at >= 0` makes node 1 leave
  /// (requires data_nodes >= 2), migrating its splits sum-neutrally;
  /// `failover_at >= 0` promotes the standby coordinator at that time,
  /// restoring from the last rebalance checkpoint and writing off loans.
  SimTime join_at = -1;
  SimTime leave_at = -1;
  SimTime failover_at = -1;

  /// Same knobs (and semantics) as the single-node experiment.
  ExperimentConfig::TraceConfig trace;
  ExperimentConfig::WatchdogConfig watchdog;
  /// Closed-loop controller, attached to node 0's monitor (the watchdog
  /// only follows node 0's pool in cluster mode). W1 resizing is inert —
  /// the cluster watchdog leaves reservation verdicts to the offline
  /// audit — so the cluster controller acts on W5/W6/lease rules.
  ExperimentConfig::ControlConfig control;
};

struct ClusterExperimentResult {
  /// Completed I/Os per measured period per client, one series per node.
  std::vector<stats::PeriodSeries> node_series;
  /// Final per-node reservation split of every client (empty vector for a
  /// client that died during the run).
  std::vector<std::vector<std::int64_t>> final_split;
  /// Engine stats indexed [client][node].
  std::vector<std::vector<core::ClientQosEngine::Stats>> engine_stats;
  /// Monitor stats indexed [node].
  std::vector<core::QosMonitor::Stats> monitor_stats;
  cluster::ClusterCoordinator::Stats cluster_stats;
  /// Borrow-ledger totals at the end of the run.
  std::int64_t borrow_granted = 0;
  std::int64_t borrow_repaid = 0;
  std::int64_t borrow_outstanding = 0;
  double total_kiops = 0.0;
};

class ClusterExperiment {
 public:
  explicit ClusterExperiment(ClusterExperimentConfig config);
  ~ClusterExperiment();

  ClusterExperiment(const ClusterExperiment&) = delete;
  ClusterExperiment& operator=(const ClusterExperiment&) = delete;

  ClusterExperimentResult Run();

  // --- introspection for tests (valid after Run()) ------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] cluster::ClusterCoordinator& coordinator() {
    return *coordinator_;
  }
  [[nodiscard]] core::QosMonitor& monitor(std::size_t node) {
    return *monitors_.at(node);
  }
  [[nodiscard]] const ClusterExperimentConfig& config() const {
    return config_;
  }
  // The run plane's parts (see RunPlane). Metrics are per-node
  // completions/capacity/pool plus the coordinator's borrow and rebalance
  // flow, snapshotted after the last node's period boundary.
  [[nodiscard]] obs::Recorder* recorder() { return plane_.recorder(); }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return plane_.metrics(); }
  [[nodiscard]] obs::SloWatchdog* watchdog() { return plane_.watchdog(); }
  [[nodiscard]] core::control::QosController* controller() {
    return plane_.controller();
  }
  [[nodiscard]] const std::string& alerts_jsonl() const {
    return plane_.alerts_jsonl();
  }

 private:
  void Build();
  void CrashClient(std::size_t index);

  ClusterExperimentConfig config_;
  sim::Simulator sim_;
  // After the simulator its recorder and measurement timer use.
  RunPlane plane_;
  std::unique_ptr<rdma::Fabric> fabric_;
  std::vector<std::unique_ptr<kvstore::KvServer>> servers_;
  std::vector<std::unique_ptr<core::QosMonitor>> monitors_;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator_;
  std::vector<rdma::Node*> client_nodes_;
  // Indexed [client][node].
  std::vector<std::vector<std::unique_ptr<kvstore::KvClient>>> kv_clients_;
  std::vector<std::vector<std::unique_ptr<core::ClientQosEngine>>> engines_;
  std::vector<std::vector<std::unique_ptr<workload::DemandGenerator>>>
      generators_;
  std::unique_ptr<ClusterExperimentResult> result_;
};

}  // namespace haechi::harness
