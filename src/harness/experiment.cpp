#include "harness/experiment.hpp"

#include <map>
#include <span>
#include <string>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace haechi::harness {

std::vector<ClientSpec> UniformClients(std::size_t n, std::int64_t reservation,
                                       std::int64_t demand,
                                       workload::RequestPattern pattern) {
  std::vector<ClientSpec> specs(n);
  for (auto& spec : specs) {
    spec.reservation = reservation;
    spec.demand = demand;
    spec.pattern = pattern;
  }
  return specs;
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)),
      plane_(config_.trace, config_.watchdog, config_.control, &sim_) {
  HAECHI_EXPECTS(!config_.clients.empty());
  HAECHI_EXPECTS(config_.measure_periods > 0);
  if (config_.io_path == IoPath::kTwoSided) {
    // The paper's two-sided runs are baseline-only; Haechi regulates the
    // one-sided path.
    HAECHI_EXPECTS(config_.mode == Mode::kBare);
  }
}

Experiment::~Experiment() = default;

std::span<const std::byte> Experiment::WriteValue() {
  if (write_value_.empty()) {
    write_value_.assign(server_->config().payload_bytes, std::byte{0xD0});
  }
  return write_value_;
}

void Experiment::CountServed(ClientId client,
                             const kvstore::KvClient::Completion& completion) {
  if (completion.status.ok() && plane_.measuring()) {
    result_->series.Add(client, 1);
  }
}

void Experiment::BuildCluster() {
  fabric_ = std::make_unique<rdma::Fabric>(sim_, config_.net, config_.seed);
  fabric_->set_copy_payloads(config_.copy_payloads);

  rdma::Node& data_node =
      fabric_->AddNode("data-node", rdma::NodeRole::kData);
  kvstore::KvServer::Config store_config;
  store_config.record_count = config_.records;
  server_ = std::make_unique<kvstore::KvServer>(data_node, store_config);
  if (config_.copy_payloads) server_->PopulateDeterministic();

  if (config_.mode != Mode::kBare) {
    core::QosConfig qos = config_.qos;
    qos.token_conversion = config_.mode == Mode::kHaechi;
    const double global_iops = config_.profiled_global_iops > 0
                                   ? config_.profiled_global_iops
                                   : config_.net.GlobalCapacityIops();
    const double local_iops = config_.profiled_local_iops > 0
                                  ? config_.profiled_local_iops
                                  : config_.net.LocalCapacityIops();
    monitor_ = std::make_unique<core::QosMonitor>(sim_, qos, data_node,
                                                  global_iops, local_iops);
    monitor_->SetPeriodHook([this](std::uint32_t period,
                                   std::int64_t completions,
                                   std::int64_t estimate) {
      plane_.OnBoundary(period, completions, estimate);
      metrics().Set("monitor.initial_pool",
                    static_cast<double>(monitor_->InitialPool()));
      metrics().Set("monitor.reclaimed_tokens",
                    static_cast<double>(monitor_->stats().reclaimed_tokens));
      metrics().Record("monitor.period_completions", completions);
      plane_.Snapshot(period);
    });
    if (controller() != nullptr) {
      monitor_->SetController(controller(), [this](ClientId client) {
        ReadmitClient(static_cast<std::size_t>(Raw(client)));
      });
    }
  }

  for (std::size_t i = 0; i < config_.clients.size(); ++i) BuildClient(i);
  if (config_.background_demand > 0) {
    for (std::size_t i = 0; i < config_.clients.size(); ++i) {
      BuildBackground(i);
    }
  }

  if (config_.faults.HasTransportFaults()) {
    fabric_->InstallFaultPlan(config_.faults);
  }
  for (const auto& fault : config_.client_faults) {
    HAECHI_EXPECTS(fault.client < rigs_.size());
    sim_.ScheduleAt(fault.crash_at,
                    [this, fault] { CrashClient(fault.client); });
    if (fault.restart_at != kSimTimeMax) {
      HAECHI_EXPECTS(fault.restart_at > fault.crash_at);
      sim_.ScheduleAt(fault.restart_at,
                      [this, fault] { RestartClient(fault.client); });
    }
  }
  // Monitor outages (DESIGN.md §15) are control-plane faults, not
  // transport faults: the harness drives them against the monitor object
  // the same way it drives scripted client crashes.
  for (const auto& outage : config_.faults.monitor_outages) {
    HAECHI_EXPECTS(outage.monitor == 0);  // single-node experiment
    sim_.ScheduleAt(outage.crash_at, [this] {
      if (monitor_ != nullptr) monitor_->Crash();
    });
    if (outage.recover_at != kSimTimeMax) {
      HAECHI_EXPECTS(outage.recover_at > outage.crash_at);
      sim_.ScheduleAt(outage.recover_at, [this, outage] {
        if (monitor_ != nullptr && monitor_->Crashed()) {
          monitor_->Recover(outage.recover_at);
        }
      });
    }
  }
}

void Experiment::BuildClient(std::size_t index) {
  HAECHI_EXPECTS(rigs_.size() == index);
  rigs_.push_back(ClientRig{});
  rigs_.back().node =
      &fabric_->AddNode("client-" + std::to_string(index + 1));
  WireClient(index);
}

void Experiment::CrashClient(std::size_t index) {
  ClientRig& rig = rigs_.at(index);
  HAECHI_LOG_INFO("experiment: crashing client %zu at t=%lld ns", index,
                  static_cast<long long>(sim_.Now()));
  HAECHI_TRACE_EVENT(obs::ActorKind::kHarness,
                     static_cast<std::uint32_t>(index),
                     obs::EventType::kClientCrash, 0);
  fabric_->CrashNode(rig.node->id());
  // The node's QPs are already in the error state; quiesce the software
  // above them. The monitor is NOT told — it must discover the death
  // through its report lease, exactly like a real silent crash.
  if (rig.engine != nullptr) rig.engine->Stop();
  rig.generator->Stop();
  if (index < background_gens_.size()) background_gens_[index]->Stop();
}

void Experiment::RestartClient(std::size_t index) {
  ClientRig& rig = rigs_.at(index);
  HAECHI_LOG_INFO("experiment: restarting client %zu at t=%lld ns", index,
                  static_cast<long long>(sim_.Now()));
  HAECHI_TRACE_EVENT(obs::ActorKind::kHarness,
                     static_cast<std::uint32_t>(index),
                     obs::EventType::kClientRestart, 0);
  HAECHI_EXPECTS(fabric_->IsCrashed(rig.node->id()));
  fabric_->RestartNode(rig.node->id());
  // Fresh QPs, KV client, engine and generator on the surviving node; the
  // engine re-admits under its old client id (re-admission handshake).
  // The previous incarnation stays in the ownership pools untouched.
  WireClient(index);
  rigs_.at(index).generator->Start(sim_.Now());
}

void Experiment::ReadmitClient(std::size_t index) {
  if (index >= rigs_.size()) return;
  // Deferred off the monitor's boundary callback stack: re-wiring tears
  // down the engine whose lease expiry the monitor is still processing.
  sim_.ScheduleAt(sim_.Now(), [this, index] {
    ClientRig& rig = rigs_.at(index);
    if (fabric_->IsCrashed(rig.node->id())) return;  // restart path owns it
    HAECHI_LOG_INFO("experiment: controller re-admits client %zu at t=%lld",
                    index, static_cast<long long>(sim_.Now()));
    if (rig.engine != nullptr) rig.engine->Stop();
    rig.generator->Stop();
    WireClient(index);
    rigs_.at(index).generator->Start(sim_.Now());
  });
}

void Experiment::WireClient(std::size_t index) {
  const ClientSpec& spec = config_.clients[index];
  rdma::Node& data_node = fabric_->node(0);
  rdma::Node& client_node = *rigs_.at(index).node;
  const auto client_id = MakeClientId(static_cast<std::uint32_t>(index));

  // Data path: one-sided QP pair (or RPC channel for the two-sided runs).
  auto& client_data_cq = client_node.CreateCq();
  auto& server_data_cq = data_node.CreateCq();
  // The data QP gets a deep (software) send queue: the QoS engine posts
  // token-backed I/Os immediately, so queueing happens here and at the
  // client NIC rather than in the application.
  auto& client_data_qp =
      client_node.CreateQp(client_data_cq, client_data_cq, 1u << 22);
  auto& server_data_qp = data_node.CreateQp(server_data_cq, server_data_cq);
  fabric_->Connect(client_data_qp, server_data_qp);

  kvstore::KvClient::Config kv_config;
  kv_config.max_outstanding = 256;
  auto kv_client = std::make_unique<kvstore::KvClient>(
      client_node, client_data_qp, server_->view(), kv_config);

  if (config_.io_path == IoPath::kTwoSided) {
    auto& client_rpc_cq = client_node.CreateCq();
    auto& client_rpc_recv_cq = client_node.CreateCq();
    auto& server_rpc_cq = data_node.CreateCq();
    auto& server_rpc_recv_cq = data_node.CreateCq();
    auto& client_rpc_qp =
        client_node.CreateQp(client_rpc_cq, client_rpc_recv_cq);
    auto& server_rpc_qp =
        data_node.CreateQp(server_rpc_cq, server_rpc_recv_cq);
    fabric_->Connect(client_rpc_qp, server_rpc_qp);
    server_->BindRpcEndpoint(server_rpc_qp);
    kv_client->BindRpcQp(client_rpc_qp);
  }

  core::ClientQosEngine* engine = nullptr;
  if (config_.mode != Mode::kBare) {
    // QoS data plane (FAA + report writes) and control plane (monitor
    // SENDs) each get their own QP pair.
    auto& qos_cq = client_node.CreateCq();
    auto& qos_srv_cq = data_node.CreateCq();
    auto& qos_qp = client_node.CreateQp(qos_cq, qos_cq);
    auto& qos_srv_qp = data_node.CreateQp(qos_srv_cq, qos_srv_cq);
    fabric_->Connect(qos_qp, qos_srv_qp);

    auto& ctrl_cq = client_node.CreateCq();
    auto& ctrl_recv_cq = client_node.CreateCq();
    auto& ctrl_srv_cq = data_node.CreateCq();
    auto& ctrl_qp = client_node.CreateQp(ctrl_cq, ctrl_recv_cq);
    auto& ctrl_srv_qp = data_node.CreateQp(ctrl_srv_cq, ctrl_srv_cq);
    fabric_->Connect(ctrl_qp, ctrl_srv_qp);

    auto wiring = monitor_->AdmitClient(client_id, spec.reservation,
                                        spec.limit, ctrl_srv_qp);
    HAECHI_ASSERT(wiring.ok());

    auto qos_engine = std::make_unique<core::ClientQosEngine>(
        sim_, client_id, config_.qos, client_node, qos_qp, ctrl_qp,
        wiring.value());
    kvstore::KvClient* kv = kv_client.get();
    qos_engine->SetIoBackend(
        [kv, this, client_id](std::uint64_t key, bool is_write,
                              core::ClientQosEngine::IoDone done) {
          auto finish = [this, client_id, done](
                            const kvstore::KvClient::Completion& completion) {
            CountServed(client_id, completion);
            done();
          };
          if (is_write) return kv->PutOneSided(key, WriteValue(), finish);
          return kv->GetOneSided(key, finish);
        });
    engine = qos_engine.get();
    engines_.push_back(std::move(qos_engine));
  }

  // The workload generator: submits either through the engine (QoS modes)
  // or straight to the KV client (bare).
  workload::DemandGenerator::Config gen_config;
  gen_config.pattern = spec.pattern;
  gen_config.outstanding = config_.outstanding;
  gen_config.period = config_.qos.period;
  gen_config.demand_per_period = spec.demand;
  gen_config.write_fraction = spec.write_fraction;

  Rng gen_rng(config_.seed * 7919 + index * 104729 + 13);
  workload::KeyChooser chooser(config_.key_kind, config_.records,
                               config_.key_theta, gen_rng);

  kvstore::KvClient* kv = kv_client.get();
  const bool two_sided = config_.io_path == IoPath::kTwoSided;
  workload::DemandGenerator::SubmitFn submit;
  if (engine != nullptr) {
    core::ClientQosEngine* eng = engine;
    submit = [eng](std::uint64_t key, bool is_write,
                   workload::DemandGenerator::CompleteFn cb) {
      // Successful completions are counted in the engine's I/O backend;
      // here only the workload's in-flight accounting is closed.
      const Status s = eng->Submit(key, cb, is_write);
      if (!s.ok()) {
        // Engine queue bounded (isolation) — persistent over-demand is
        // shed; the I/O is simply not performed.
        cb();
      }
    };
  } else {
    submit = [this, kv, two_sided, client_id](
                 std::uint64_t key, bool is_write,
                 workload::DemandGenerator::CompleteFn cb) {
      auto done = [this, client_id, cb](
                      const kvstore::KvClient::Completion& completion) {
        CountServed(client_id, completion);
        cb();
      };
      Status s;
      if (is_write) {
        s = kv->PutOneSided(key, WriteValue(), done);
      } else {
        s = two_sided ? kv->GetRpc(key, done) : kv->GetOneSided(key, done);
      }
      // Shed on backpressure or a faulted QP; accounting still closes.
      if (!s.ok()) done(kvstore::KvClient::Completion{s, {}, 0});
    };
  }

  auto generator = std::make_unique<workload::DemandGenerator>(
      sim_, gen_config, std::move(chooser), std::move(submit));
  generator->SetLatencySink(&result_->latency, config_.warmup);

  ClientRig& rig = rigs_.at(index);
  rig.kv = kv_client.get();
  rig.engine = engine;
  rig.generator = generator.get();
  kv_clients_.push_back(std::move(kv_client));
  generators_.push_back(std::move(generator));
}

void Experiment::BuildBackground(std::size_t index) {
  // The Set-4 congestion injection: an unmanaged job on each client node
  // that issues constant-rate one-sided reads to the data node through its
  // own QP (so the data-node NIC arbitrates it as a separate flow).
  rdma::Node& data_node = fabric_->node(0);
  rdma::Node& client_node = fabric_->node(1 + index);

  auto& bg_cq = client_node.CreateCq();
  auto& bg_srv_cq = data_node.CreateCq();
  auto& bg_qp = client_node.CreateQp(bg_cq, bg_cq);
  auto& bg_srv_qp = data_node.CreateQp(bg_srv_cq, bg_srv_cq);
  fabric_->Connect(bg_qp, bg_srv_qp);

  kvstore::KvClient::Config kv_config;
  kv_config.max_outstanding = 256;
  auto bg_client = std::make_unique<kvstore::KvClient>(
      client_node, bg_qp, server_->view(), kv_config);

  workload::DemandGenerator::Config gen_config;
  gen_config.pattern = workload::RequestPattern::kConstantRate;
  gen_config.period = config_.qos.period;
  gen_config.demand_per_period = config_.background_demand;

  Rng bg_rng(config_.seed * 31337 + index * 7 + 5);
  workload::KeyChooser chooser(workload::KeyChooser::Kind::kUniformRandom,
                               config_.records, 0.0, bg_rng);
  kvstore::KvClient* kv = bg_client.get();
  auto generator = std::make_unique<workload::DemandGenerator>(
      sim_, gen_config, std::move(chooser),
      [kv](std::uint64_t key, bool /*is_write*/,
           workload::DemandGenerator::CompleteFn cb) {
        const Status s = kv->GetOneSided(
            key, [cb](const kvstore::KvClient::Completion&) { cb(); });
        // Background jobs tolerate saturation: drop on backpressure.
        if (!s.ok()) cb();
      });

  workload::DemandGenerator* gen = generator.get();
  if (config_.background_on < config_.background_off) {
    sim_.ScheduleAt(config_.background_on, [gen] { gen->Start(0); });
    if (config_.background_off != kSimTimeMax) {
      sim_.ScheduleAt(config_.background_off, [gen] { gen->Stop(); });
    }
  }

  background_clients_.push_back(std::move(bg_client));
  background_gens_.push_back(std::move(generator));
}

ExperimentResult Experiment::Run() {
  result_ = std::make_unique<ExperimentResult>(config_.clients.size());

  // The plane's recorder is installed process-wide so instrumentation deep
  // in core/rdma/kvstore reaches it without plumbing.
  obs::ScopedRecorder trace_scope(plane_.recorder());
  plane_.EmitRunConfig(config_.qos, config_.measure_periods);
  plane_.DeclareClients(config_.clients);

  BuildCluster();

  for (const auto& spec : config_.clients) {
    result_->reservations.push_back(spec.reservation);
  }

  // Kick off the QoS monitor (period boundaries at multiples of T) and the
  // generators (same alignment; engines begin on their first PeriodStart).
  if (monitor_) monitor_->Start(0);
  for (auto& rig : rigs_) rig.generator->Start(0);

  // Measurement window bookkeeping: one PeriodSeries row per QoS period
  // after warm-up.
  plane_.StartMeasureWindow(config_.warmup, config_.qos.period,
                            config_.measure_periods,
                            std::span(&result_->series, 1));

  const SimTime end = config_.warmup + static_cast<SimTime>(
                                           config_.measure_periods) *
                                           config_.qos.period;
  sim_.RunUntil(end);
  plane_.Emit(obs::EventType::kMeasureEnd, 0);

  // Harvest.
  result_->total_kiops = ToKiops(
      result_->series.Total(),
      static_cast<SimDuration>(config_.measure_periods) * config_.qos.period);
  if (monitor_) result_->monitor_stats = monitor_->stats();
  for (const auto& rig : rigs_) {
    if (rig.engine != nullptr) {
      result_->engine_stats.push_back(rig.engine->stats());
    }
  }
  result_->capacity_trace = std::move(plane_.capacity_trace());
  result_->events_run = sim_.EventsRun();
  result_->fault_stats = fabric_->fault_stats();

  plane_.AddRollup("run.events",
                   static_cast<std::int64_t>(result_->events_run));
  plane_.AddRollup("fabric.ops_dropped",
                   static_cast<std::int64_t>(result_->fault_stats.ops_dropped));
  plane_.AddRollup("fabric.ops_delayed",
                   static_cast<std::int64_t>(result_->fault_stats.ops_delayed));
  plane_.AddRollup(
      "fabric.ops_duplicated",
      static_cast<std::int64_t>(result_->fault_stats.ops_duplicated));
  for (const auto& engine_stats : result_->engine_stats) {
    plane_.AddRollup("engine.faa_ops",
                     static_cast<std::int64_t>(engine_stats.faa_ops));
    plane_.AddRollup("engine.report_writes",
                     static_cast<std::int64_t>(engine_stats.report_writes));
    plane_.AddRollup("engine.completed_total",
                     static_cast<std::int64_t>(engine_stats.completed_total));
  }

  // Cross-layer span profile: with detail tracing on, reassemble every I/O's
  // admit→fetch→wait→queue→service stages from the engine rings (the same
  // spans a merged stream gives, without merging) and replay the per-period
  // stage distributions into the registry (reset per period, so each
  // snapshot row is that period's distribution, not a cumulative blur).
  // Compiles to nothing under HAECHI_TRACE=OFF: the AssembleSpans stub
  // returns an empty vector.
  obs::Recorder* recorder = plane_.recorder();
  if (recorder != nullptr && recorder->detail()) {
    obs::SpanAssemblyStats span_stats;
    result_->spans = obs::AssembleSpans(*recorder, &span_stats);
    result_->span_stats = span_stats;
    plane_.AddRollup("span.count", static_cast<std::int64_t>(span_stats.spans));
    plane_.AddRollup("span.dropped_unissued",
                     static_cast<std::int64_t>(span_stats.dropped_unissued));
    plane_.AddRollup("span.dropped_uncompleted",
                     static_cast<std::int64_t>(span_stats.dropped_uncompleted));
    plane_.AddRollup("span.orphan_events",
                     static_cast<std::int64_t>(span_stats.orphan_events));
    if (!result_->spans.empty()) {
      obs::MetricsRegistry& registry = metrics();
      // Registry histograms live in a std::map, so the handles stay valid.
      stats::Histogram* stage_hist[obs::kSpanStages] = {
          &registry.Histogram("span.stage.admit"),
          &registry.Histogram("span.stage.token_fetch"),
          &registry.Histogram("span.stage.convert_wait"),
          &registry.Histogram("span.stage.queue"),
          &registry.Histogram("span.stage.nic_service")};
      stats::Histogram& total_hist = registry.Histogram("span.stage.total");
      std::map<std::uint32_t, std::vector<const obs::IoSpan*>> by_period;
      for (const obs::IoSpan& span : result_->spans) {
        by_period[span.period].push_back(&span);
      }
      for (const auto& [period, spans] : by_period) {
        for (stats::Histogram* hist : stage_hist) hist->Reset();
        total_hist.Reset();
        for (const obs::IoSpan* span : spans) {
          for (std::size_t s = 0; s < obs::kSpanStages; ++s) {
            stage_hist[s]->Record(span->stage_ns[s]);
          }
          total_hist.Record(span->Total());
        }
        registry.SnapshotHistograms(period, "span.stage.");
      }
    }
  }
  plane_.Finish(result_->total_kiops);

  // Stop the machinery so a subsequent RunUntil in tests drains cleanly.
  if (monitor_) monitor_->Stop();
  for (auto& rig : rigs_) rig.generator->Stop();
  for (auto& generator : background_gens_) generator->Stop();
  // The result is moved out below: I/Os still in flight must not record
  // their latency into its moved-from histogram.
  for (auto& generator : generators_) generator->SetLatencySink(nullptr);

  return std::move(*result_);
}

}  // namespace haechi::harness
