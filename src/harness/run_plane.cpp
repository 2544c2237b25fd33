#include "harness/run_plane.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/export.hpp"

namespace haechi::harness {

RunPlane::RunPlane(const TraceConfig& trace, const WatchdogConfig& watchdog,
                   const ControlConfig& control, sim::Simulator* sim,
                   obs::Recorder::ClockFn clock, std::size_t actors,
                   std::mutex* tap_mutex)
    : sim_(sim),
      clock_(std::move(clock)),
      tap_mutex_(tap_mutex),
      trace_(trace),
      classes_(control.classes),
      swaps_(control.api) {
  std::stable_sort(
      swaps_.begin(), swaps_.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  // The recorder spans the whole run, build (admission events) through the
  // final period boundary.
  bool want_recorder = trace.enabled || !trace.out_path.empty();
#if HAECHI_WATCHDOG_ENABLED
  // Arming the watchdog forces a recorder: the watchdog is a tap on the
  // event stream, and sees nothing without one. An armed controller in
  // turn forces the watchdog — it feeds on the live alert stream.
  const bool want_watchdog = watchdog.enabled || !watchdog.alerts_out.empty() ||
                             watchdog.status_interval > 0 || control.armed();
  want_recorder = want_recorder || want_watchdog;
#endif
  if (want_recorder) {
    obs::Recorder::Options options;
    options.ring_capacity = trace.ring_capacity;
    options.detail = trace.detail;
    options.preallocate_actors = actors;
    recorder_ = sim_ != nullptr
                    ? std::make_unique<obs::Recorder>(*sim_, options)
                    : std::make_unique<obs::Recorder>(clock_, options);
  }
#if HAECHI_WATCHDOG_ENABLED
  if (want_watchdog) {
    obs::WatchdogOptions wd_options;
    wd_options.guarantee_fraction = watchdog.guarantee_fraction;
    watchdog_ = std::make_unique<obs::SloWatchdog>(wd_options);
    // The JSONL sink always exists when armed (empty path = buffer only),
    // so tests can compare the byte-exact alert document without a file.
    alerts_sink_ = std::make_unique<obs::JsonlAlertSink>(watchdog.alerts_out);
    watchdog_->AddSink(alerts_sink_.get());
    if (watchdog.status_interval > 0) {
      auto status_fn = watchdog.status_fn;
      if (!status_fn) {
        status_fn = [](const obs::PeriodStatus& status) {
          std::fprintf(stderr, "%s\n", obs::FormatStatusLine(status).c_str());
        };
      }
      watchdog_->SetStatusFn(std::move(status_fn), watchdog.status_interval);
    }
    if (control.armed()) {
      // The controller's OnAlert only ever fires inside the tap, and
      // PlanBoundary runs on the monitor's boundary, so on threads its
      // state is effectively monitor-thread-local.
      controller_ = std::make_unique<core::control::QosController>(control);
      watchdog_->AddSink(controller_.get());
    }
    // Installed before the first header event: the watchdog's view must
    // start at kRunConfig or its period-length inference runs blind.
    if (tap_mutex_ != nullptr) {
      recorder_->SetTap([this](const obs::TraceEvent& event) {
        std::lock_guard lk(*tap_mutex_);
        watchdog_->OnEvent(event);
      });
    } else {
      recorder_->SetTap(
          [this](const obs::TraceEvent& event) { watchdog_->OnEvent(event); });
    }
  }
#endif
  if (recorder_ != nullptr) {
    // Ring truncation is never silent: the first overwrite raises a one-shot
    // watchdog alert (when armed) or at least a log line; the cumulative
    // trace.dropped_events total is harvested at Finish either way.
    recorder_->SetDropNotify([this] {
#if HAECHI_WATCHDOG_ENABLED
      if (watchdog_ != nullptr) {
        std::unique_lock<std::mutex> lk;
        if (tap_mutex_ != nullptr) lk = std::unique_lock(*tap_mutex_);
        watchdog_->NotifyTruncation(sim_ != nullptr ? sim_->Now() : clock_());
        return;
      }
#endif
      HAECHI_LOG_WARN(
          "run: trace ring wrapped; any export of this run is truncated");
    });
  }
}

const std::string& RunPlane::alerts_jsonl() const {
  static const std::string kEmpty;
  return alerts_sink_ != nullptr ? alerts_sink_->buffer() : kEmpty;
}

void RunPlane::DeclareClients(const std::vector<ClientSpec>& clients) {
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ClientSpec& spec = clients[i];
    const auto client = static_cast<std::uint32_t>(i);
    Emit(obs::EventType::kClientSpec, client, spec.reservation, spec.limit,
         spec.demand);
    if (controller_ == nullptr) continue;
    controller_->SetClientSpec(client, spec.reservation, spec.limit,
                               spec.demand);
    const auto cls = classes_.find(i);
    if (cls != classes_.end()) controller_->SetClientClass(client, cls->second);
  }
  if (controller_ != nullptr) EmitControllerConfig(0);
}

void RunPlane::EmitControllerConfig(std::uint32_t period) {
  if (recorder_ == nullptr) return;
  const core::control::ControllerConfig& config = controller_->config();
  recorder_->Emit(obs::ActorKind::kHarness, 0,
                  obs::EventType::kControllerConfig, period,
                  static_cast<std::int64_t>(config.policy),
                  static_cast<std::int64_t>(config.rules),
                  static_cast<std::int64_t>(config.quiet_periods));
}

void RunPlane::ApplySwaps(std::uint32_t period) {
  while (next_swap_ < swaps_.size() && swaps_[next_swap_].first <= period) {
    const core::control::Policy policy = swaps_[next_swap_++].second;
    if (controller_ == nullptr) continue;
    controller_->SetPolicy(policy);
    EmitControllerConfig(period);
  }
}

void RunPlane::OnBoundary(std::uint32_t period, std::int64_t completions,
                          std::int64_t estimate) {
  ApplySwaps(period);
  capacity_trace_.push_back({period, completions, estimate});
  // The registry's long-format CSV carries the same per-period trajectory
  // the figures plot.
  metrics_.Add("monitor.completions", completions);
  metrics_.Set("monitor.capacity_estimate", static_cast<double>(estimate));
}

void RunPlane::Snapshot(std::uint32_t period) {
  metrics_.SnapshotPeriod(period);
  last_period_ = period;
}

void RunPlane::StartMeasureWindow(SimDuration warmup, SimDuration period,
                                  std::size_t periods,
                                  std::span<stats::PeriodSeries> series) {
  HAECHI_EXPECTS(sim_ != nullptr);
  measure_series_ = series;
  sim_->ScheduleAt(warmup, [this, period, periods] {
    measuring_ = true;
    Emit(obs::EventType::kMeasureStart, 0);
    for (auto& s : measure_series_) s.BeginPeriod();
    measured_periods_ = 1;
    measure_timer_ = std::make_unique<sim::PeriodicTimer>(
        *sim_, period, [this, periods] {
          if (measured_periods_ >= periods) {
            measuring_ = false;
            measure_timer_->Stop();
            return;
          }
          for (auto& s : measure_series_) s.BeginPeriod();
          ++measured_periods_;
        });
    measure_timer_->Start();
  });
}

void RunPlane::AddRollup(const std::string& name, std::int64_t delta) {
  metrics_.Add(name, delta);
  rollups_.insert(name);
}

void RunPlane::SetRollup(const std::string& name, double value) {
  metrics_.Set(name, value);
  rollups_.insert(name);
}

void RunPlane::Finish(double total_kiops) {
  SetRollup("run.total_kiops", total_kiops);
  if (recorder_ != nullptr) {
    AddRollup("trace.emitted_events",
              static_cast<std::int64_t>(recorder_->TotalEmitted()));
    AddRollup("trace.dropped_events",
              static_cast<std::int64_t>(recorder_->TotalDropped()));
  }
#if HAECHI_WATCHDOG_ENABLED
  if (watchdog_ != nullptr) {
    // Every emitter has stopped; no lock needed past this point.
    const Status flushed = watchdog_->Finish();
    if (!flushed.ok()) {
      HAECHI_LOG_WARN("run: alert sink flush failed: %s",
                      flushed.ToString().c_str());
    }
    AddRollup("watchdog.alerts",
              static_cast<std::int64_t>(watchdog_->alerts().size()));
    AddRollup("watchdog.critical",
              static_cast<std::int64_t>(
                  watchdog_->CountAtLeast(obs::AlertSeverity::kCritical)));
    AddRollup("watchdog.periods_evaluated",
              static_cast<std::int64_t>(watchdog_->periods_evaluated()));
  }
  if (controller_ != nullptr) {
    const auto& cs = controller_->stats();
    AddRollup("controller.alerts", static_cast<std::int64_t>(cs.alerts));
    AddRollup("controller.resizes", static_cast<std::int64_t>(cs.resizes));
    AddRollup("controller.eta_scalings",
              static_cast<std::int64_t>(cs.eta_scalings));
    AddRollup("controller.forced_conversions",
              static_cast<std::int64_t>(cs.forced_conversions));
    AddRollup("controller.readmits", static_cast<std::int64_t>(cs.readmits));
    AddRollup("controller.recoveries",
              static_cast<std::int64_t>(cs.recoveries));
  }
#endif
  metrics_.AppendRollups(last_period_, rollups_);

  if (recorder_ != nullptr && !trace_.out_path.empty()) {
    const Status exported = obs::ExportTraceFile(*recorder_, trace_.out_path);
    if (exported.ok()) {
      HAECHI_LOG_INFO(
          "run: exported %llu trace events to %s",
          static_cast<unsigned long long>(recorder_->TotalEmitted()),
          trace_.out_path.c_str());
    } else {
      HAECHI_LOG_WARN("run: trace export failed: %s",
                      exported.ToString().c_str());
    }
  }
  if (!trace_.metrics_out.empty()) {
    const Status written = metrics_.ToCsv().WriteFile(trace_.metrics_out);
    if (!written.ok()) {
      HAECHI_LOG_WARN("run: metrics export failed: %s",
                      written.ToString().c_str());
    }
  }
  if (!trace_.prom_out.empty()) {
    const Status written =
        obs::WriteStringToFile(trace_.prom_out, metrics_.ToPrometheus());
    if (!written.ok()) {
      HAECHI_LOG_WARN("run: prom export failed: %s",
                      written.ToString().c_str());
    }
  }
}

}  // namespace haechi::harness
