#include "harness/cluster_experiment.hpp"

#include <string>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace haechi::harness {

ClusterExperiment::ClusterExperiment(ClusterExperimentConfig config)
    : config_(std::move(config)),
      plane_(config_.trace, config_.watchdog, config_.control, &sim_) {
  HAECHI_EXPECTS(config_.data_nodes >= 1);
  HAECHI_EXPECTS(!config_.tenants.empty());
  HAECHI_EXPECTS(!config_.clients.empty());
  HAECHI_EXPECTS(config_.measure_periods > 0);
  for (const auto& spec : config_.clients) {
    HAECHI_EXPECTS(spec.tenant < config_.tenants.size());
    HAECHI_EXPECTS(spec.demand_per_node.size() == config_.data_nodes);
  }
  if (config_.shift_at >= 0) {
    HAECHI_EXPECTS(config_.shifted_demand.size() == config_.clients.size());
  }
  for (const auto& crash : config_.client_crashes) {
    HAECHI_EXPECTS(crash.client < config_.clients.size());
  }
  if (config_.join_at >= 0 || config_.leave_at >= 0) {
    HAECHI_EXPECTS(config_.data_nodes >= 2);
  }
}

ClusterExperiment::~ClusterExperiment() = default;

void ClusterExperiment::Build() {
  fabric_ = std::make_unique<rdma::Fabric>(sim_, config_.net, config_.seed);
  fabric_->set_copy_payloads(false);

  // Data nodes: KV store + monitor each. The coordinator assigns monitor d
  // the trace actor d, so emit the capacity events after it exists.
  std::vector<core::QosMonitor*> monitor_ptrs;
  for (std::size_t d = 0; d < config_.data_nodes; ++d) {
    rdma::Node& node = fabric_->AddNode("data-" + std::to_string(d),
                                        rdma::NodeRole::kData);
    kvstore::KvServer::Config store;
    store.record_count = config_.records;
    servers_.push_back(std::make_unique<kvstore::KvServer>(node, store));
    // Each shard profiles its 1/D share of the cluster's capacity: token
    // minting (conversion) and admission are bounded per node, so a hot
    // node genuinely runs out of tokens instead of self-minting the whole
    // cluster's worth — that scarcity is what rebalancing and borrowing
    // exist to fix. The per-client local bound C_L stays whole: one
    // client's data path does not shrink because the cluster sharded.
    monitors_.push_back(std::make_unique<core::QosMonitor>(
        sim_, config_.qos, node,
        config_.net.GlobalCapacityIops() /
            static_cast<double>(config_.data_nodes),
        config_.net.LocalCapacityIops()));
    monitor_ptrs.push_back(monitors_.back().get());
  }
  cluster::ClusterCoordinator::Config cluster = config_.cluster;
  cluster.interval = config_.qos.period;
  coordinator_ = std::make_unique<cluster::ClusterCoordinator>(
      sim_, cluster, monitor_ptrs);
  if (config_.join_at >= 0) {
    // The joiner is built and wired like any node but starts outside the
    // membership: admission gives it a zero split until JoinNode fires.
    coordinator_->SetNodeActive(config_.data_nodes - 1, false);
  }

  // Per-node metrics rollup, one registry snapshot per cluster period. The
  // monitors run period boundaries in node order (they were started
  // 0..D-1 at the same alignment), so snapshotting from the last node's
  // hook captures every node's counters for that period plus the
  // coordinator's borrow/rebalance flow.
  for (std::size_t d = 0; d < config_.data_nodes; ++d) {
    core::QosMonitor* monitor = monitors_[d].get();
    const std::string prefix = "node." + std::to_string(d) + ".";
    monitor->SetPeriodHook([this, d, monitor, prefix](
                               std::uint32_t period, std::int64_t completions,
                               std::int64_t estimate) {
      // Scripted control-api swaps land on node 0's boundary callback.
      if (d == 0) plane_.ApplySwaps(period);
      obs::MetricsRegistry& registry = metrics();
      registry.Add(prefix + "completions", completions);
      registry.Set(prefix + "capacity_estimate", static_cast<double>(estimate));
      registry.Set(prefix + "initial_pool",
                   static_cast<double>(monitor->InitialPool()));
      registry.Set(prefix + "reclaimed_tokens",
                   static_cast<double>(monitor->stats().reclaimed_tokens));
      if (d + 1 == config_.data_nodes) {
        const auto& cstats = coordinator_->stats();
        const auto& ledger = coordinator_->borrow_ledger();
        registry.Set("cluster.borrow_granted",
                     static_cast<double>(ledger.TotalGranted()));
        registry.Set("cluster.borrow_repaid",
                     static_cast<double>(ledger.TotalRepaid()));
        registry.Set("cluster.borrow_outstanding",
                     static_cast<double>(ledger.TotalOutstanding()));
        registry.Set("cluster.borrow_requests",
                     static_cast<double>(cstats.borrow_requests));
        registry.Set("cluster.stale_reports",
                     static_cast<double>(cstats.stale_reports));
        registry.Set("cluster.rebalances",
                     static_cast<double>(cstats.rebalances));
        registry.Set("cluster.tokens_moved",
                     static_cast<double>(cstats.tokens_moved));
        plane_.Snapshot(period);
      }
    });
  }
  for (std::size_t d = 0; d < config_.data_nodes; ++d) {
    [[maybe_unused]] const auto& admission = monitors_[d]->admission();
    HAECHI_TRACE_EVENT(obs::ActorKind::kHarness,
                       static_cast<std::uint32_t>(d),
                       obs::EventType::kNodeCapacity, 0,
                       static_cast<std::uint64_t>(d),
                       admission.AggregateCapacity(),
                       admission.LocalCapacity());
  }

  if (controller() != nullptr) {
    // Node 0 hosts the control boundary (the watchdog follows node 0's
    // pool in cluster mode); no readmit path — the coordinator's purge
    // machinery owns cluster-wide client death.
    monitors_[0]->SetController(controller(), nullptr);
  }

  for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
    const ClusterTenantSpec& tenant = config_.tenants[t];
    const Status added =
        coordinator_->AddTenant(static_cast<cluster::TenantId>(t),
                                tenant.reservation, tenant.limit);
    HAECHI_ASSERT(added.ok());
    std::uint64_t members = 0;
    for (const auto& spec : config_.clients) {
      if (spec.tenant == t) ++members;
    }
    HAECHI_TRACE_EVENT(obs::ActorKind::kHarness,
                       static_cast<std::uint32_t>(t),
                       obs::EventType::kTenantSpec, 0, tenant.reservation,
                       tenant.limit, members);
  }

  kv_clients_.resize(config_.clients.size());
  engines_.resize(config_.clients.size());
  generators_.resize(config_.clients.size());

  for (std::size_t i = 0; i < config_.clients.size(); ++i) {
    const ClusterClientSpec& spec = config_.clients[i];
    const auto client_id = MakeClientId(static_cast<std::uint32_t>(i));
    rdma::Node& client_node =
        fabric_->AddNode("client-" + std::to_string(i + 1));
    client_nodes_.push_back(&client_node);

    // Control QPs first: admission returns the per-node wirings.
    std::vector<rdma::QueuePair*> ctrl_srv_qps;
    std::vector<rdma::QueuePair*> ctrl_qps;
    for (std::size_t d = 0; d < config_.data_nodes; ++d) {
      rdma::Node& data_node = fabric_->node(d);
      auto& ctrl_cq = client_node.CreateCq();
      auto& ctrl_recv_cq = client_node.CreateCq();
      auto& ctrl_srv_cq = data_node.CreateCq();
      auto& ctrl_qp = client_node.CreateQp(ctrl_cq, ctrl_recv_cq);
      auto& ctrl_srv_qp = data_node.CreateQp(ctrl_srv_cq, ctrl_srv_cq);
      fabric_->Connect(ctrl_qp, ctrl_srv_qp);
      ctrl_qps.push_back(&ctrl_qp);
      ctrl_srv_qps.push_back(&ctrl_srv_qp);
    }
    auto wirings = coordinator_->AdmitClient(
        static_cast<cluster::TenantId>(spec.tenant), client_id,
        spec.reservation, spec.limit, ctrl_srv_qps);
    HAECHI_ASSERT(wirings.ok());

    for (std::size_t d = 0; d < config_.data_nodes; ++d) {
      rdma::Node& data_node = fabric_->node(d);

      auto& data_cq = client_node.CreateCq();
      auto& data_srv_cq = data_node.CreateCq();
      auto& data_qp = client_node.CreateQp(data_cq, data_cq, 1u << 22);
      auto& data_srv_qp = data_node.CreateQp(data_srv_cq, data_srv_cq);
      fabric_->Connect(data_qp, data_srv_qp);
      kv_clients_[i].push_back(std::make_unique<kvstore::KvClient>(
          client_node, data_qp, servers_[d]->view(),
          kvstore::KvClient::Config{}));

      auto& qos_cq = client_node.CreateCq();
      auto& qos_srv_cq = data_node.CreateCq();
      auto& qos_qp = client_node.CreateQp(qos_cq, qos_cq);
      auto& qos_srv_qp = data_node.CreateQp(qos_srv_cq, qos_srv_cq);
      fabric_->Connect(qos_qp, qos_srv_qp);

      auto engine = std::make_unique<core::ClientQosEngine>(
          sim_, client_id, config_.qos, client_node, qos_qp, *ctrl_qps[d],
          wirings.value()[d]);
      // D engines share the client id; give each its own trace actor (and
      // publish the binding) so the per-actor seq streams stay dense.
      const auto engine_actor =
          static_cast<std::uint32_t>(i * config_.data_nodes + d);
      engine->SetTraceActor(engine_actor);
      HAECHI_TRACE_EVENT(obs::ActorKind::kHarness, engine_actor,
                         obs::EventType::kEngineBinding, 0,
                         static_cast<std::uint64_t>(i),
                         static_cast<std::uint64_t>(d),
                         static_cast<std::uint64_t>(spec.tenant));
      kvstore::KvClient* kv = kv_clients_[i][d].get();
      engine->SetIoBackend(
          [kv](std::uint64_t key, bool /*is_write*/,
               core::ClientQosEngine::IoDone done) {
            return kv->GetOneSided(
                key, [done](const kvstore::KvClient::Completion&) { done(); });
          });

      workload::DemandGenerator::Config gen;
      gen.pattern = spec.pattern;
      gen.period = config_.qos.period;
      gen.demand_per_period = spec.demand_per_node[d];
      Rng rng(config_.seed * 31 + i * 1009 + d * 7 + 3);
      workload::KeyChooser chooser(
          workload::KeyChooser::Kind::kUniformRandom, config_.records, 0.0,
          rng);
      core::ClientQosEngine* eng = engine.get();
      generators_[i].push_back(std::make_unique<workload::DemandGenerator>(
          sim_, gen, std::move(chooser),
          [this, eng, client_id, d](
              std::uint64_t key, bool /*is_write*/,
              workload::DemandGenerator::CompleteFn cb) {
            const auto node = static_cast<std::uint32_t>(d);
            auto counted = [this, client_id, node, cb](bool measured) {
              if (measured && plane_.measuring()) {
                result_->node_series[node].Add(client_id, 1);
              }
              cb();
            };
            const Status s =
                eng->Submit(key, [counted]() mutable { counted(true); });
            if (!s.ok()) counted(false);  // shed on engine backpressure
          }));
      engines_[i].push_back(std::move(engine));
    }
  }
}

void ClusterExperiment::CrashClient(std::size_t index) {
  HAECHI_LOG_INFO("cluster experiment: crashing client %zu at t=%lld ns",
                  index, static_cast<long long>(sim_.Now()));
  HAECHI_TRACE_EVENT(obs::ActorKind::kHarness,
                     static_cast<std::uint32_t>(index),
                     obs::EventType::kClientCrash, 0);
  fabric_->CrashNode(client_nodes_.at(index)->id());
  // Quiesce the software above the errored QPs. No monitor is told: each
  // node's report lease must discover the silence on its own, and the
  // first to fire triggers the coordinator's cluster-wide purge.
  for (auto& engine : engines_.at(index)) engine->Stop();
  for (auto& generator : generators_.at(index)) generator->Stop();
}

ClusterExperimentResult ClusterExperiment::Run() {
  result_ = std::make_unique<ClusterExperimentResult>();
  for (std::size_t d = 0; d < config_.data_nodes; ++d) {
    result_->node_series.emplace_back(config_.clients.size());
  }

  obs::ScopedRecorder trace_scope(plane_.recorder());
  plane_.EmitRunConfig(config_.qos, config_.measure_periods);
  // The cluster-shape header must precede every monitor/cluster event: the
  // audit and watchdog switch into cluster mode when they see it.
  plane_.Emit(obs::EventType::kClusterConfig, 0,
              static_cast<std::int64_t>(config_.data_nodes),
              static_cast<std::int64_t>(config_.tenants.size()),
              static_cast<std::int64_t>(config_.cluster.borrow.policy));
  // The header and the controller see each client's cluster-wide demand.
  std::vector<ClientSpec> specs;
  for (const ClusterClientSpec& spec : config_.clients) {
    ClientSpec& flat = specs.emplace_back();
    flat.reservation = spec.reservation;
    flat.limit = spec.limit;
    for (const auto per_node : spec.demand_per_node) flat.demand += per_node;
  }
  plane_.DeclareClients(specs);

  Build();

  for (auto& monitor : monitors_) monitor->Start(0);
  coordinator_->Start(0);
  for (auto& per_client : generators_) {
    for (auto& generator : per_client) generator->Start(0);
  }
  if (config_.shift_at >= 0) {
    sim_.ScheduleAt(config_.shift_at, [this] {
      for (std::size_t i = 0; i < generators_.size(); ++i) {
        for (std::size_t d = 0; d < generators_[i].size(); ++d) {
          generators_[i][d]->set_demand(config_.shifted_demand[i][d]);
        }
      }
    });
  }
  for (const auto& crash : config_.client_crashes) {
    sim_.ScheduleAt(crash.crash_at,
                    [this, crash] { CrashClient(crash.client); });
  }
  if (config_.join_at >= 0) {
    sim_.ScheduleAt(config_.join_at, [this] {
      coordinator_->JoinNode(config_.data_nodes - 1);
    });
  }
  if (config_.leave_at >= 0) {
    sim_.ScheduleAt(config_.leave_at,
                    [this] { coordinator_->LeaveNode(1); });
  }
  if (config_.failover_at >= 0) {
    sim_.ScheduleAt(config_.failover_at, [this] { coordinator_->FailOver(); });
  }

  plane_.StartMeasureWindow(config_.warmup, config_.qos.period,
                            config_.measure_periods, result_->node_series);

  const SimTime end =
      config_.warmup +
      static_cast<SimTime>(config_.measure_periods) * config_.qos.period;
  sim_.RunUntil(end);
  plane_.Emit(obs::EventType::kMeasureEnd, 0);

  std::int64_t total = 0;
  for (const auto& series : result_->node_series) total += series.Total();
  result_->total_kiops = ToKiops(
      total,
      static_cast<SimDuration>(config_.measure_periods) * config_.qos.period);
  for (std::size_t i = 0; i < config_.clients.size(); ++i) {
    auto split = coordinator_->SplitOf(
        MakeClientId(static_cast<std::uint32_t>(i)));
    // A crashed client was purged from the coordinator; record no split.
    result_->final_split.push_back(
        split.ok() ? split.value() : std::vector<std::int64_t>{});
  }
  result_->cluster_stats = coordinator_->stats();
  const auto& ledger = coordinator_->borrow_ledger();
  result_->borrow_granted = ledger.TotalGranted();
  result_->borrow_repaid = ledger.TotalRepaid();
  result_->borrow_outstanding = ledger.TotalOutstanding();
  for (const auto& monitor : monitors_) {
    result_->monitor_stats.push_back(monitor->stats());
  }
  for (const auto& per_client : engines_) {
    auto& row = result_->engine_stats.emplace_back();
    for (const auto& engine : per_client) row.push_back(engine->stats());
  }

  // End-of-run rollups: how well each node's share of the final
  // reservation split was actually used, and the cluster borrow flow.
  for (std::size_t d = 0; d < config_.data_nodes; ++d) {
    std::int64_t split_sum = 0;
    for (const auto& split : result_->final_split) {
      if (d < split.size()) split_sum += split[d];
    }
    const std::int64_t completed = result_->node_series[d].Total();
    const std::string prefix = "node." + std::to_string(d) + ".";
    plane_.SetRollup(prefix + "split_reservation",
                     static_cast<double>(split_sum));
    plane_.AddRollup(prefix + "completed_total", completed);
    const double reserved_total =
        static_cast<double>(split_sum) *
        static_cast<double>(config_.measure_periods);
    plane_.SetRollup(prefix + "split_utilization",
                     reserved_total > 0.0
                         ? static_cast<double>(completed) / reserved_total
                         : 0.0);
  }
  plane_.AddRollup("cluster.borrowed_tokens_total", result_->borrow_granted);
  plane_.AddRollup("cluster.repaid_tokens_total", result_->borrow_repaid);
  plane_.AddRollup(
      "cluster.stale_reports_total",
      static_cast<std::int64_t>(result_->cluster_stats.stale_reports));
  plane_.AddRollup(
      "cluster.dead_clients",
      static_cast<std::int64_t>(result_->cluster_stats.dead_clients));
  plane_.Finish(result_->total_kiops);

  coordinator_->Stop();
  for (auto& monitor : monitors_) monitor->Stop();
  for (auto& per_client : generators_) {
    for (auto& generator : per_client) generator->Stop();
  }
  return std::move(*result_);
}

}  // namespace haechi::harness
