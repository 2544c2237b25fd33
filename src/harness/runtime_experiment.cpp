#include "harness/runtime_experiment.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/export.hpp"
#include "runtime/shared_region.hpp"

namespace haechi::harness {

namespace {
using obs::ActorKind;
using obs::EventType;

// xorshift64*: a self-contained per-worker key stream (the threaded run is
// wall-clock scheduled, so nothing downstream depends on the exact keys).
std::uint64_t NextKey(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}
}  // namespace

ThreadedExperiment::ThreadedExperiment(ExperimentConfig config)
    : config_(std::move(config)) {
  HAECHI_EXPECTS(!config_.clients.empty());
  HAECHI_EXPECTS(config_.clients.size() <= runtime::SharedRegion::kMaxClients);
  HAECHI_EXPECTS(config_.mode != Mode::kBare);
  HAECHI_EXPECTS(config_.io_path == IoPath::kOneSided);
  // Transport-level fault plans belong to the simulated fabric; monitor
  // outages are harness-driven (like client crashes) and supported here.
  HAECHI_EXPECTS(!config_.faults.HasTransportFaults());
  for (const auto& outage : config_.faults.monitor_outages) {
    HAECHI_EXPECTS(outage.monitor == 0);
    // A threaded run must finish: a never-recovering monitor would park
    // the completion latch until the deadline instead of ending the run.
    HAECHI_EXPECTS(outage.recover_at != kSimTimeMax);
    HAECHI_EXPECTS(outage.crash_at < outage.recover_at);
  }
  // Crash-only client faults are supported; restarts (re-admission under
  // fresh QPs) remain a simulator feature.
  for (const auto& fault : config_.client_faults) {
    HAECHI_EXPECTS(fault.client < config_.clients.size());
    HAECHI_EXPECTS(fault.restart_at == kSimTimeMax);
  }
  HAECHI_EXPECTS(config_.background_demand == 0);
  HAECHI_EXPECTS(config_.qos.period > 0);
  HAECHI_EXPECTS(config_.qos.pool_shards >= 1 &&
                 config_.qos.pool_shards <=
                     static_cast<std::int64_t>(
                         runtime::SharedRegion::kMaxShards));
  HAECHI_EXPECTS(config_.qos.fetch_batch >= 1);
  warmup_periods_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max<SimDuration>(config_.warmup, 0) /
                                  config_.qos.period));
  worker_count_ = config_.runtime_workers == 0
                      ? config_.clients.size()
                      : std::min(config_.runtime_workers,
                                 config_.clients.size());
  crash_at_.assign(config_.clients.size(), kSimTimeMax);
  for (const auto& fault : config_.client_faults) {
    crash_at_[fault.client] = std::min(crash_at_[fault.client], fault.crash_at);
  }
}

ThreadedExperiment::~ThreadedExperiment() {
  // Run() joins everything before returning; this only covers a Run() that
  // never happened or threw through HAECHI_EXPECTS.
  for (auto& engine : engines_) {
    if (engine) engine->Stop();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (monitor_) monitor_->Stop();
}

void ThreadedExperiment::WorkerLoop(std::size_t worker) {
  using Grant = runtime::ThreadedEngine::Grant;
  ThreadedExperimentResult::WorkerStats& wstats = worker_stats_[worker];
  // One token-acquisition chain per TryAcquireBatch call: long enough to
  // amortise the two engine-mutex acquisitions (acquire + completion) over
  // a run of 4 KB reads, short enough that one client cannot monopolise
  // its worker while siblings wait.
  constexpr std::int64_t kChain = 64;

  struct ClientState {
    std::size_t index = 0;
    std::uint32_t period = 0;     // period being worked; 0 = not started
    std::int64_t remaining = 0;   // demand left in `period`
    bool reserved = false;        // may still hold reservation tokens
    bool active = true;
    std::uint64_t key_state = 0;
  };
  std::vector<ClientState> owned;
  for (std::size_t i = worker; i < config_.clients.size();
       i += worker_count_) {
    ClientState st;
    st.index = i;
    st.key_state = config_.seed * 0x9E3779B97F4A7C15ULL +
                   0xD1B54A32D192ED03ULL * (i + 1);
    owned.push_back(st);
  }
  const auto demand_of = [&](std::size_t i) {
    return config_.clients[i].demand > 0
               ? config_.clients[i].demand
               : std::numeric_limits<std::int64_t>::max();
  };
  std::array<std::byte, runtime::SharedRegion::kRecordBytes> buf{};

  std::size_t active_count = owned.size();
  while (active_count > 0) {
    bool progress = false;
    // Reservation I/Os go first, the engine's grant order applied to the
    // worker's time: while an owned client still draws reservation tokens,
    // clients already on pool tokens wait, so a slow host eats into the
    // pool share rather than into a reservation.
    bool reservation_first = false;
    for (const ClientState& st : owned) {
      reservation_first |= st.active && st.reserved && st.remaining > 0;
    }
    for (ClientState& st : owned) {
      if (!st.active) continue;
      runtime::ThreadedEngine& engine = *engines_[st.index];
      const auto deactivate = [&] {
        st.active = false;
        --active_count;
      };
      if (crash_at_[st.index] != kSimTimeMax &&
          clock_.Now() >= crash_at_[st.index]) {
        // Scripted crash: the engine dies silently mid-period (no final
        // report); the monitor's lease reclaims its residual claim.
        if (recorder_ != nullptr) {
          recorder_->EmitAt(clock_.Now(), ActorKind::kHarness,
                            static_cast<std::uint32_t>(st.index),
                            EventType::kClientCrash, 0);
        }
        engine.Stop();
        deactivate();
        progress = true;
        continue;
      }
      const auto advance_period = [&]() {
        if (engine.Stopped()) {
          deactivate();
          return;
        }
        const std::uint32_t p = engine.CurrentPeriod();
        if (p != 0 && p != st.period) {
          st.period = p;
          st.remaining = demand_of(st.index);
          st.reserved = true;
          progress = true;
        }
      };
      if (st.period == 0 || st.remaining <= 0) {
        // Not started yet, or this period's demand is satisfied: check for
        // the next period without parking (the pool serves other clients).
        advance_period();
        continue;
      }
      if (reservation_first && !st.reserved) {
        // Waiting behind reservation I/Os, but a new period (and with it a
        // fresh reservation) is picked up at once.
        advance_period();
        continue;
      }
      const runtime::ThreadedEngine::Batch batch = engine.TryAcquireBatch(
          st.period, std::min<std::int64_t>(st.remaining, kChain));
      switch (batch.status) {
        case Grant::kStopped:
          deactivate();
          break;
        case Grant::kPeriodOver:
          advance_period();
          break;
        case Grant::kNotReady:
          // Throttled / empty pool / end guard: service siblings, and let
          // them run even if this client still holds reservation tokens.
          st.reserved = false;
          break;
        case Grant::kToken: {
          st.reserved = batch.from_reservation == batch.count;
          ++wstats.batches;
          wstats.ios += static_cast<std::uint64_t>(batch.count);
          for (std::int64_t k = 0; k < batch.count; ++k) {
            fabric_->PostRecordRead(ports_[st.index],
                                    NextKey(st.key_state) % config_.records,
                                    std::span<std::byte>(buf));
          }
          engine.OnIoCompleted(batch.count);
          std::vector<std::int64_t>& completed = completions_[st.index];
          if (st.period < completed.size()) {
            completed[st.period] += batch.count;
          }
          st.remaining -= batch.count;
          progress = true;
          break;
        }
      }
    }
    if (!progress && active_count > 0) {
      // Every owned client is parked (pre-start, throttled, or awaiting
      // the next period): yield the CPU briefly instead of spinning.
      ++wstats.idle_sleeps;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

ThreadedExperimentResult ThreadedExperiment::Run() {
  const std::size_t n = config_.clients.size();
  ThreadedExperimentResult result{stats::PeriodSeries(n)};
  const SimTime run_start = clock_.Now();

#if HAECHI_WATCHDOG_ENABLED
  // Arming the watchdog forces a recorder (it taps the event stream); an
  // armed controller in turn forces the watchdog (it feeds on its alerts).
  const bool want_watchdog = config_.watchdog.enabled ||
                             !config_.watchdog.alerts_out.empty() ||
                             config_.watchdog.status_interval > 0 ||
                             config_.control.armed();
#else
  const bool want_watchdog = false;
#endif
  if (config_.trace.enabled || want_watchdog) {
    obs::Recorder::Options options;
    options.ring_capacity = config_.trace.ring_capacity;
    options.detail = config_.trace.detail;
    options.preallocate_actors = runtime::SharedRegion::kMaxClients;
    recorder_ = std::make_unique<obs::Recorder>(
        obs::Recorder::ClockFn([this] { return clock_.Now(); }), options);
  }
#if HAECHI_WATCHDOG_ENABLED
  if (want_watchdog) {
    obs::WatchdogOptions wd_options;
    wd_options.guarantee_fraction = config_.watchdog.guarantee_fraction;
    watchdog_ = std::make_unique<obs::SloWatchdog>(wd_options);
    alerts_sink_ =
        std::make_unique<obs::JsonlAlertSink>(config_.watchdog.alerts_out);
    watchdog_->AddSink(alerts_sink_.get());
    if (config_.watchdog.status_interval > 0) {
      auto status_fn = config_.watchdog.status_fn;
      if (!status_fn) {
        status_fn = [](const obs::PeriodStatus& status) {
          std::fprintf(stderr, "%s\n", obs::FormatStatusLine(status).c_str());
        };
      }
      watchdog_->SetStatusFn(std::move(status_fn),
                             config_.watchdog.status_interval);
    }
    if (config_.control.armed()) {
      controller_ = std::make_unique<core::control::QosController>(
          config_.control.ToControllerConfig());
      // The controller's OnAlert only ever fires while the watchdog
      // processes monitor-emitted events, and PlanBoundary runs on the
      // monitor thread too — its state is effectively monitor-thread-local.
      watchdog_->AddSink(controller_.get());
      std::stable_sort(config_.control.api.begin(), config_.control.api.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
    }
    // Installed before the first harness event below, and serialised: the
    // monitor's two timer threads and every worker-owned engine emit
    // concurrently, while the watchdog is single-threaded by contract.
    recorder_->SetTap([this](const obs::TraceEvent& event) {
      std::lock_guard lk(watchdog_mu_);
      watchdog_->OnEvent(event);
    });
    recorder_->SetDropNotify([this] {
      std::lock_guard lk(watchdog_mu_);
      watchdog_->NotifyTruncation(clock_.Now());
    });
  }
#endif
  const auto emit = [this](EventType type, std::uint32_t actor, std::int64_t a,
                           std::int64_t b, std::int64_t c) {
    if (recorder_ != nullptr) {
      recorder_->EmitAt(clock_.Now(), ActorKind::kHarness, actor, type, 0, a,
                        b, c);
    }
  };
  emit(EventType::kRunConfig, 0, config_.qos.period, config_.qos.token_batch,
       static_cast<std::int64_t>(config_.measure_periods));
  for (std::size_t i = 0; i < n; ++i) {
    const ClientSpec& spec = config_.clients[i];
    emit(EventType::kClientSpec, static_cast<std::uint32_t>(i),
         spec.reservation, spec.limit, spec.demand);
  }

  core::QosConfig qos = config_.qos;
  qos.token_conversion = config_.mode == Mode::kHaechi;
  // The threaded fabric has no analytic capacity model, so profiled values
  // are required (the sim uses them too when provided, which is how the
  // differential test pins both runtimes to one capacity).
  HAECHI_EXPECTS(config_.profiled_global_iops > 0);
  HAECHI_EXPECTS(config_.profiled_local_iops > 0);

  fabric_ = std::make_unique<runtime::ThreadedFabric>(
      clock_, config_.records, static_cast<std::size_t>(qos.pool_shards));
  monitor_ = std::make_unique<runtime::ThreadedMonitor>(
      clock_, recorder_.get(), qos, *fabric_, config_.profiled_global_iops,
      config_.profiled_local_iops);

  completions_.assign(
      n, std::vector<std::int64_t>(
             warmup_periods_ + config_.measure_periods + 8, 0));
  for (std::size_t i = 0; i < n; ++i) {
    const ClientSpec& spec = config_.clients[i];
    const ClientId id = MakeClientId(static_cast<std::uint32_t>(i));
    auto wiring = monitor_->AdmitClient(id, spec.reservation, spec.limit);
    HAECHI_EXPECTS(wiring.ok());
    ports_.push_back(wiring.value().slot);
    engines_.push_back(std::make_unique<runtime::ThreadedEngine>(
        clock_, recorder_.get(), id, qos, *fabric_, wiring.value().slot,
        wiring.value().slot));
    const Status bound = monitor_->BindEngine(id, engines_.back().get());
    HAECHI_EXPECTS(bound.ok());
    result.reservations.push_back(spec.reservation);
  }

  if (controller_ != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const ClientSpec& spec = config_.clients[i];
      controller_->SetClientSpec(static_cast<std::uint32_t>(i),
                                 spec.reservation, spec.limit, spec.demand);
      const auto cls = config_.control.classes.find(i);
      if (cls != config_.control.classes.end()) {
        controller_->SetClientClass(static_cast<std::uint32_t>(i),
                                    cls->second);
      }
    }
    // No readmit callback: threaded clients never depart through a lease
    // (no fault plans here), so kReadmit actions stay unapplied.
    monitor_->SetController(controller_.get(), nullptr);
    emit(EventType::kControllerConfig, 0,
         static_cast<std::int64_t>(controller_->policy()),
         static_cast<std::int64_t>(controller_->config().rules),
         static_cast<std::int64_t>(controller_->config().quiet_periods));
  }

  // Completion latch: the monitor's period hook fires with the period that
  // just ended (the boundary starting the next one). The measurement
  // markers are stamped half a period away from that boundary — start at
  // mid-warmup-period, end half a period past the last measured boundary —
  // so the audit's window test ([start, start+T] inside the markers, with
  // boundary stamps captured under the monitor lock) selects exactly the
  // periods the harvested series rows cover, with no edge races.
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  const std::uint32_t last_measured = static_cast<std::uint32_t>(
      warmup_periods_ + config_.measure_periods);
  monitor_->SetPeriodHook([&, this](std::uint32_t period,
                                    std::int64_t completions,
                                    std::int64_t estimate) {
    // Scripted control-api swaps: the hook runs on the monitor thread, the
    // same thread that calls PlanBoundary, so SetPolicy needs no lock and
    // the same boundary already sees the new policy.
    while (control_api_next_ < config_.control.api.size() &&
           config_.control.api[control_api_next_].first <= period) {
      const auto swap = config_.control.api[control_api_next_++];
      if (controller_ != nullptr) {
        controller_->SetPolicy(swap.second);
        emit(EventType::kControllerConfig, 0,
             static_cast<std::int64_t>(swap.second),
             static_cast<std::int64_t>(controller_->config().rules),
             static_cast<std::int64_t>(controller_->config().quiet_periods));
      }
    }
    result.capacity_trace.push_back({period, completions, estimate});
    metrics_.Add("monitor.completions", completions);
    metrics_.Set("monitor.capacity_estimate", static_cast<double>(estimate));
    metrics_.SnapshotPeriod(period);
    if (period == static_cast<std::uint32_t>(warmup_periods_) &&
        recorder_ != nullptr) {
      recorder_->EmitAt(clock_.Now() - config_.qos.period / 2,
                        ActorKind::kHarness, 0, EventType::kMeasureStart, 0);
    }
    if (period == last_measured) {
      if (recorder_ != nullptr) {
        recorder_->EmitAt(clock_.Now() + config_.qos.period / 2,
                          ActorKind::kHarness, 0, EventType::kMeasureEnd, 0);
      }
      std::lock_guard lk(done_mu);
      done = true;
      done_cv.notify_all();
    }
  });

  worker_stats_.assign(worker_count_, {});
  for (std::size_t w = 0; w < worker_count_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  monitor_->Start();

  // Scripted monitor outages (DESIGN.md §15): a dedicated driver thread
  // sleeps to each crash/recover instant and flips the monitor, mirroring
  // how the sim harness schedules Crash()/Recover(at). The plan's times
  // are anchored at monitor start — the threaded analogue of sim t=0 —
  // not the Clock epoch: setup (store population, admission) runs between
  // the two and can take arbitrarily long on a loaded box, and an
  // epoch-anchored script whose instants all fall inside setup would
  // collapse the outage to back-to-back Crash()/Recover() calls. The
  // abort latch wakes the driver early if the run finishes first, so
  // join never over-sleeps.
  const SimTime protocol_epoch = clock_.Now();
  std::mutex outage_mu;
  std::condition_variable outage_cv;
  bool outage_abort = false;
  std::thread outage_driver;
  if (!config_.faults.monitor_outages.empty()) {
    // Sleeps until protocol time `t` (monitor-start-relative); false =
    // aborted early.
    const auto sleep_until = [&](SimTime t) {
      std::unique_lock lk(outage_mu);
      const SimDuration left =
          std::max<SimDuration>(t + protocol_epoch - clock_.Now(), 0);
      return !outage_cv.wait_for(lk, std::chrono::nanoseconds(left),
                                 [&] { return outage_abort; });
    };
    outage_driver = std::thread([this, sleep_until] {
      for (const auto& outage : config_.faults.monitor_outages) {
        if (!sleep_until(outage.crash_at)) return;
        monitor_->Crash();
        if (!sleep_until(outage.recover_at)) return;
        monitor_->Recover();
      }
    });
  }

  // Generous deadline: the run should take (warmup + measure + 1) periods;
  // give it 4x plus a constant so a wedged run fails loudly instead of
  // hanging the test binary forever.
  SimDuration outage_time = 0;
  for (const auto& outage : config_.faults.monitor_outages) {
    outage_time += outage.recover_at - outage.crash_at;
  }
  const auto deadline =
      std::chrono::nanoseconds((static_cast<SimDuration>(warmup_periods_) +
                                static_cast<SimDuration>(
                                    config_.measure_periods) +
                                2) *
                                   config_.qos.period * 4 +
                               outage_time * 4 + Seconds(10));
  {
    std::unique_lock lk(done_mu);
    const bool finished = done_cv.wait_for(lk, deadline, [&] { return done; });
    HAECHI_EXPECTS(finished);
  }

  if (outage_driver.joinable()) {
    {
      std::lock_guard lk(outage_mu);
      outage_abort = true;
    }
    outage_cv.notify_all();
    outage_driver.join();
  }

  monitor_->Stop();
  for (auto& engine : engines_) engine->Stop();
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  // Harvest. Rows are QoS periods warmup+1 .. warmup+measure, in order.
  for (std::size_t p = warmup_periods_ + 1;
       p <= warmup_periods_ + config_.measure_periods; ++p) {
    result.series.BeginPeriod();
    for (std::size_t i = 0; i < n; ++i) {
      result.series.Add(MakeClientId(static_cast<std::uint32_t>(i)),
                        completions_[i][p]);
    }
  }
  result.total_kiops = ToKiops(
      result.series.Total(),
      static_cast<SimDuration>(config_.measure_periods) * config_.qos.period);
  result.monitor_stats = monitor_->StatsSnapshot();
  result.monitor_runtime_stats = monitor_->RuntimeStatsSnapshot();
  result.ledger = monitor_->LedgerSnapshot();
  for (auto& engine : engines_) {
    result.engine_stats.push_back(engine->StatsSnapshot());
    result.engine_runtime_stats.push_back(engine->RuntimeStatsSnapshot());
  }
  result.worker_stats = worker_stats_;
  for (const std::size_t slot : ports_) {
    result.report_write_retries += fabric_->SlotWriteRetries(slot);
  }
  result.wall_time = clock_.Now() - run_start;

  // Runtime-layer rollups: the "dark" counters the trace cannot carry at
  // full rate — shard FAA outcome mix, seqlock writer contention, worker
  // pool occupancy.
  metrics_.Set("run.total_kiops", result.total_kiops);
  for (const auto& rt : result.engine_runtime_stats) {
    metrics_.Add("runtime.faa_home_hits",
                 static_cast<std::int64_t>(rt.faa_home_hits));
    metrics_.Add("runtime.faa_steals",
                 static_cast<std::int64_t>(rt.faa_steals));
    metrics_.Add("runtime.faa_dry_probes",
                 static_cast<std::int64_t>(rt.faa_dry_probes));
    metrics_.Add("runtime.span_ios",
                 static_cast<std::int64_t>(rt.span_ios));
  }
  metrics_.Add("runtime.convert_cas_retries",
               static_cast<std::int64_t>(
                   result.monitor_runtime_stats.convert_cas_retries));
  metrics_.Add("runtime.shard_samples",
               static_cast<std::int64_t>(
                   result.monitor_runtime_stats.shard_samples));
  metrics_.Add("runtime.report_write_retries",
               static_cast<std::int64_t>(result.report_write_retries));
  metrics_.Add("runtime.rebalances",
               static_cast<std::int64_t>(result.monitor_stats.rebalances));
  metrics_.Add("runtime.rebalanced_tokens", result.monitor_stats.rebalanced_tokens);
  for (std::size_t w = 0; w < result.worker_stats.size(); ++w) {
    const std::string prefix = "worker." + std::to_string(w) + ".";
    const auto& ws = result.worker_stats[w];
    metrics_.Add(prefix + "batches", static_cast<std::int64_t>(ws.batches));
    metrics_.Add(prefix + "ios", static_cast<std::int64_t>(ws.ios));
    metrics_.Add(prefix + "idle_sleeps",
                 static_cast<std::int64_t>(ws.idle_sleeps));
  }
  if (recorder_ != nullptr) {
    metrics_.Add("trace.emitted_events",
                 static_cast<std::int64_t>(recorder_->TotalEmitted()));
    metrics_.Add("trace.dropped_events",
                 static_cast<std::int64_t>(recorder_->TotalDropped()));
  }
#if HAECHI_WATCHDOG_ENABLED
  if (watchdog_ != nullptr) {
    // Every emitter thread is joined; no lock needed past this point.
    const Status flushed = watchdog_->Finish();
    if (!flushed.ok()) {
      HAECHI_LOG_WARN("threaded experiment: alert sink flush failed: %s",
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

  if (recorder_ != nullptr && !config_.trace.out_path.empty()) {
    const Status status =
        obs::ExportTraceFile(*recorder_, config_.trace.out_path);
    if (!status.ok()) {
      HAECHI_LOG_WARN("threaded experiment: trace export failed: %s",
                      status.ToString().c_str());
    }
  }
  if (!config_.trace.metrics_out.empty()) {
    const Status written =
        metrics_.ToCsv().WriteFile(config_.trace.metrics_out);
    if (!written.ok()) {
      HAECHI_LOG_WARN("threaded experiment: metrics export failed: %s",
                      written.ToString().c_str());
    }
  }
  if (!config_.trace.prom_out.empty()) {
    const std::string exposition = metrics_.ToPrometheus();
    std::FILE* file = std::fopen(config_.trace.prom_out.c_str(), "wb");
    if (file == nullptr) {
      HAECHI_LOG_WARN("threaded experiment: cannot open prom file: %s",
                      config_.trace.prom_out.c_str());
    } else {
      const std::size_t written =
          std::fwrite(exposition.data(), 1, exposition.size(), file);
      const int closed = std::fclose(file);
      if (written != exposition.size() || closed != 0) {
        HAECHI_LOG_WARN("threaded experiment: short write to prom file: %s",
                        config_.trace.prom_out.c_str());
      }
    }
  }
  return result;
}

}  // namespace haechi::harness
