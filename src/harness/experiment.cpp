#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/export.hpp"

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
    : config_(std::move(config)) {
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
  if (completion.status.ok() && measuring_) result_->series.Add(client, 1);
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
      // Scripted control-api swaps land on the boundary callback, so the
      // same boundary's PlanBoundary already sees the new policy.
      while (control_api_next_ < config_.control.api.size() &&
             config_.control.api[control_api_next_].first <= period) {
        const auto swap = config_.control.api[control_api_next_++];
        if (controller_ != nullptr) {
          controller_->SetPolicy(swap.second);
          HAECHI_TRACE_EVENT(
              obs::ActorKind::kHarness, 0, obs::EventType::kControllerConfig,
              period, static_cast<std::int64_t>(swap.second),
              static_cast<std::int64_t>(controller_->config().rules),
              static_cast<std::int64_t>(controller_->config().quiet_periods));
        }
      }
      result_->capacity_trace.push_back({period, completions, estimate});
      // One metrics snapshot per QoS period: the registry's long-format
      // CSV carries the same per-period trajectory the figures plot.
      metrics_.Add("monitor.completions", completions);
      metrics_.Set("monitor.capacity_estimate",
                   static_cast<double>(estimate));
      metrics_.Set("monitor.initial_pool",
                   static_cast<double>(monitor_->InitialPool()));
      metrics_.Set("monitor.reclaimed_tokens",
                   static_cast<double>(monitor_->stats().reclaimed_tokens));
      metrics_.Record("monitor.period_completions", completions);
      metrics_.SnapshotPeriod(period);
    });
    if (controller_ != nullptr) {
      for (std::size_t i = 0; i < config_.clients.size(); ++i) {
        const ClientSpec& spec = config_.clients[i];
        controller_->SetClientSpec(static_cast<std::uint32_t>(i),
                                   spec.reservation, spec.limit, spec.demand);
        const auto cls = config_.control.classes.find(i);
        if (cls != config_.control.classes.end()) {
          controller_->SetClientClass(static_cast<std::uint32_t>(i),
                                      cls->second);
        }
      }
      monitor_->SetController(controller_.get(), [this](ClientId client) {
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
  result_ = std::make_unique<ExperimentResult>(ExperimentResult{
      stats::PeriodSeries(config_.clients.size()),
      {},
      stats::Histogram(),
      0.0,
      {},
      {},
      {},
      0,
      {},
      {},
      {}});

  // The flight recorder spans cluster build (admission events) through the
  // final period boundary; it is installed process-wide so instrumentation
  // deep in core/rdma/kvstore reaches it without plumbing.
  bool want_recorder =
      config_.trace.enabled || !config_.trace.out_path.empty();
#if HAECHI_WATCHDOG_ENABLED
  // Arming the watchdog forces a recorder: the watchdog is a tap on the
  // event stream, and sees nothing without one. An armed controller in
  // turn forces the watchdog — it feeds on the live alert stream.
  const bool want_watchdog = config_.watchdog.enabled ||
                             !config_.watchdog.alerts_out.empty() ||
                             config_.watchdog.status_interval > 0 ||
                             config_.control.armed();
  want_recorder = want_recorder || want_watchdog;
#endif
  if (want_recorder) {
    obs::Recorder::Options trace_options;
    trace_options.ring_capacity = config_.trace.ring_capacity;
    trace_options.detail = config_.trace.detail;
    recorder_ = std::make_unique<obs::Recorder>(sim_, trace_options);
  }
#if HAECHI_WATCHDOG_ENABLED
  if (want_watchdog) {
    obs::WatchdogOptions wd_options;
    wd_options.guarantee_fraction = config_.watchdog.guarantee_fraction;
    watchdog_ = std::make_unique<obs::SloWatchdog>(wd_options);
    // The JSONL sink always exists when armed (empty path = buffer only),
    // so tests can compare the byte-exact alert document without a file.
    alerts_sink_ =
        std::make_unique<obs::JsonlAlertSink>(config_.watchdog.alerts_out);
    watchdog_->AddSink(alerts_sink_.get());
    if (config_.watchdog.status_interval > 0) {
      auto status_fn = config_.watchdog.status_fn;
      if (!status_fn) {
        status_fn = [](const obs::PeriodStatus& status) {
          std::fprintf(stderr, "%s\n",
                       obs::FormatStatusLine(status).c_str());
        };
      }
      watchdog_->SetStatusFn(std::move(status_fn),
                             config_.watchdog.status_interval);
    }
    if (config_.control.armed()) {
      controller_ = std::make_unique<core::control::QosController>(
          config_.control.ToControllerConfig());
      watchdog_->AddSink(controller_.get());
      std::stable_sort(config_.control.api.begin(), config_.control.api.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
    }
    // Installed before the first harness event below: the watchdog's view
    // must start at kRunConfig or its period-length inference runs blind.
    recorder_->SetTap(
        [this](const obs::TraceEvent& event) { watchdog_->OnEvent(event); });
  }
#endif
  if (recorder_ != nullptr) {
    // Ring truncation is never silent: the first overwrite raises a one-shot
    // watchdog alert (when armed) or at least a log line; the cumulative
    // trace.dropped_events counter is harvested below either way.
    recorder_->SetDropNotify([this] {
#if HAECHI_WATCHDOG_ENABLED
      if (watchdog_ != nullptr) {
        watchdog_->NotifyTruncation(sim_.Now());
        return;
      }
#endif
      HAECHI_LOG_WARN(
          "experiment: trace ring wrapped; any export of this run is "
          "truncated");
    });
  }
  obs::ScopedRecorder trace_scope(recorder_.get());
  HAECHI_TRACE_EVENT(obs::ActorKind::kHarness, 0, obs::EventType::kRunConfig,
                     0, config_.qos.period, config_.qos.token_batch,
                     static_cast<std::int64_t>(config_.measure_periods));
  for (std::size_t i = 0; i < config_.clients.size(); ++i) {
    [[maybe_unused]] const ClientSpec& spec = config_.clients[i];
    HAECHI_TRACE_EVENT(obs::ActorKind::kHarness,
                       static_cast<std::uint32_t>(i),
                       obs::EventType::kClientSpec, 0, spec.reservation,
                       spec.limit, spec.demand);
  }
  if (controller_ != nullptr) {
    HAECHI_TRACE_EVENT(
        obs::ActorKind::kHarness, 0, obs::EventType::kControllerConfig, 0,
        static_cast<std::int64_t>(controller_->policy()),
        static_cast<std::int64_t>(controller_->config().rules),
        static_cast<std::int64_t>(controller_->config().quiet_periods));
  }

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
  sim_.ScheduleAt(config_.warmup, [this] {
    measuring_ = true;
    HAECHI_TRACE_EVENT(obs::ActorKind::kHarness, 0,
                       obs::EventType::kMeasureStart, 0);
    result_->series.BeginPeriod();
    measured_periods_ = 1;
    measure_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, config_.qos.period, [this] {
          if (measured_periods_ >= config_.measure_periods) {
            measuring_ = false;
            measure_timer_->Stop();
            return;
          }
          result_->series.BeginPeriod();
          ++measured_periods_;
        });
    measure_timer_->Start();
  });

  const SimTime end = config_.warmup + static_cast<SimTime>(
                                           config_.measure_periods) *
                                           config_.qos.period;
  sim_.RunUntil(end);
  HAECHI_TRACE_EVENT(obs::ActorKind::kHarness, 0,
                     obs::EventType::kMeasureEnd, 0);

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
  result_->events_run = sim_.EventsRun();
  result_->fault_stats = fabric_->fault_stats();

  // Run-level roll-ups into the metrics registry (cumulative counters; the
  // per-period trajectory lives in the snapshots above).
  metrics_.Set("run.total_kiops", result_->total_kiops);
  metrics_.Add("run.events", static_cast<std::int64_t>(result_->events_run));
  metrics_.Add("fabric.ops_dropped",
               static_cast<std::int64_t>(result_->fault_stats.ops_dropped));
  metrics_.Add("fabric.ops_delayed",
               static_cast<std::int64_t>(result_->fault_stats.ops_delayed));
  metrics_.Add(
      "fabric.ops_duplicated",
      static_cast<std::int64_t>(result_->fault_stats.ops_duplicated));
  for (const auto& engine_stats : result_->engine_stats) {
    metrics_.Add("engine.faa_ops",
                 static_cast<std::int64_t>(engine_stats.faa_ops));
    metrics_.Add("engine.report_writes",
                 static_cast<std::int64_t>(engine_stats.report_writes));
    metrics_.Add("engine.completed_total",
                 static_cast<std::int64_t>(engine_stats.completed_total));
  }
  if (recorder_ != nullptr) {
    metrics_.Add("trace.emitted_events",
                 static_cast<std::int64_t>(recorder_->TotalEmitted()));
    metrics_.Add("trace.dropped_events",
                 static_cast<std::int64_t>(recorder_->TotalDropped()));
  }

  // Cross-layer span profile: with detail tracing on, reassemble every I/O's
  // admit→fetch→wait→queue→service stages from the merged stream and replay
  // the per-period stage distributions into the registry (reset per period,
  // so each snapshot row is that period's distribution, not a cumulative
  // blur). Compiles to nothing under HAECHI_TRACE=OFF: the AssembleSpans
  // stub returns an empty vector.
  if (recorder_ != nullptr && recorder_->detail()) {
    obs::SpanAssemblyStats span_stats;
    result_->spans = obs::AssembleSpans(recorder_->Merged(), &span_stats);
    result_->span_stats = span_stats;
    metrics_.Add("span.count", static_cast<std::int64_t>(span_stats.spans));
    metrics_.Add("span.dropped_unissued",
                 static_cast<std::int64_t>(span_stats.dropped_unissued));
    metrics_.Add("span.dropped_uncompleted",
                 static_cast<std::int64_t>(span_stats.dropped_uncompleted));
    metrics_.Add("span.orphan_events",
                 static_cast<std::int64_t>(span_stats.orphan_events));
    if (!result_->spans.empty()) {
      static constexpr const char* kStageMetric[obs::kSpanStages] = {
          "span.stage.admit", "span.stage.token_fetch",
          "span.stage.convert_wait", "span.stage.queue",
          "span.stage.nic_service"};
      std::map<std::uint32_t, std::vector<const obs::IoSpan*>> by_period;
      for (const obs::IoSpan& span : result_->spans) {
        by_period[span.period].push_back(&span);
      }
      for (const auto& [period, spans] : by_period) {
        for (const char* name : kStageMetric) metrics_.Histogram(name).Reset();
        metrics_.Histogram("span.stage.total").Reset();
        for (const obs::IoSpan* span : spans) {
          for (std::size_t s = 0; s < obs::kSpanStages; ++s) {
            metrics_.Record(kStageMetric[s], span->stage_ns[s]);
          }
          metrics_.Record("span.stage.total", span->Total());
        }
        metrics_.SnapshotHistograms(period, "span.stage.");
      }
    }
  }

  if (recorder_ != nullptr && !config_.trace.out_path.empty()) {
    const Status exported =
        obs::ExportTraceFile(*recorder_, config_.trace.out_path);
    if (exported.ok()) {
      HAECHI_LOG_INFO("experiment: exported %llu trace events to %s",
                      static_cast<unsigned long long>(
                          recorder_->TotalEmitted()),
                      config_.trace.out_path.c_str());
    } else {
      HAECHI_LOG_WARN("experiment: trace export failed: %s",
                      exported.ToString().c_str());
    }
  }
#if HAECHI_WATCHDOG_ENABLED
  if (watchdog_ != nullptr) {
    const Status flushed = watchdog_->Finish();
    if (!flushed.ok()) {
      HAECHI_LOG_WARN("experiment: alert sink flush failed: %s",
                      flushed.ToString().c_str());
    }
    metrics_.Add("watchdog.alerts",
                 static_cast<std::int64_t>(watchdog_->alerts().size()));
    metrics_.Add("watchdog.critical",
                 static_cast<std::int64_t>(
                     watchdog_->CountAtLeast(obs::AlertSeverity::kCritical)));
    metrics_.Add("watchdog.periods_evaluated",
                 static_cast<std::int64_t>(watchdog_->periods_evaluated()));
  }
  if (controller_ != nullptr) {
    const auto& cs = controller_->stats();
    metrics_.Add("controller.alerts", static_cast<std::int64_t>(cs.alerts));
    metrics_.Add("controller.resizes", static_cast<std::int64_t>(cs.resizes));
    metrics_.Add("controller.eta_scalings",
                 static_cast<std::int64_t>(cs.eta_scalings));
    metrics_.Add("controller.forced_conversions",
                 static_cast<std::int64_t>(cs.forced_conversions));
    metrics_.Add("controller.readmits",
                 static_cast<std::int64_t>(cs.readmits));
    metrics_.Add("controller.recoveries",
                 static_cast<std::int64_t>(cs.recoveries));
  }
#endif
  if (!config_.trace.metrics_out.empty()) {
    const Status written =
        metrics_.ToCsv().WriteFile(config_.trace.metrics_out);
    if (!written.ok()) {
      HAECHI_LOG_WARN("experiment: metrics export failed: %s",
                      written.ToString().c_str());
    }
  }
  if (!config_.trace.prom_out.empty()) {
    const std::string exposition = metrics_.ToPrometheus();
    std::FILE* file = std::fopen(config_.trace.prom_out.c_str(), "wb");
    if (file == nullptr) {
      HAECHI_LOG_WARN("experiment: cannot open prom file: %s",
                      config_.trace.prom_out.c_str());
    } else {
      const std::size_t written =
          std::fwrite(exposition.data(), 1, exposition.size(), file);
      const int closed = std::fclose(file);
      if (written != exposition.size() || closed != 0) {
        HAECHI_LOG_WARN("experiment: short write to prom file: %s",
                        config_.trace.prom_out.c_str());
      }
    }
  }

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
