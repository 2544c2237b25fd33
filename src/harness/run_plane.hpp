// The run plane: everything an experiment builder does around the QoS
// protocol, wired once for the simulated single-node (`Experiment`),
// cluster (`ClusterExperiment`) and threaded (`ThreadedExperiment`)
// builders.
//
// The plane owns the flight recorder (stamped by the builder's clock), the
// online watchdog with its JSONL alert sink and status line, the
// closed-loop controller and its scripted control-api swaps, the
// ring-wrap notice, the run header (kRunConfig, kClientSpec,
// kControllerConfig), the per-boundary work (swaps, capacity trace,
// metrics snapshot), the end-of-run harvest and the three exports (trace
// file, metrics CSV, Prometheus text).
//
// Topology stays with the builders — one data node, D nodes behind the
// coordinator, or a shared region plus a worker pool. A builder owns one
// RunPlane, emits its topology events through it, calls it from its
// monitor's period hook, hands it the builder's own end-of-run rollups,
// and calls Finish() once the run has stopped.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/control/controller.hpp"
#include "core/engine_core.hpp"
#include "core/monitor_core.hpp"
#include "obs/alerts.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "stats/period_series.hpp"
#include "workload/generator.hpp"

namespace haechi::harness {

/// Per-client experiment parameters (all rates in I/Os per QoS period).
struct ClientSpec {
  std::int64_t reservation = 0;
  std::int64_t limit = 0;  // 0 = unlimited
  std::int64_t demand = 0;
  workload::RequestPattern pattern = workload::RequestPattern::kBurst;
  /// YCSB-style write mix (0.0 = the paper's read-only workload C).
  double write_fraction = 0.0;
};

/// Flight-recorder tracing (src/obs). `enabled` or a nonempty `out_path`
/// installs a Recorder for the whole run (cluster build through
/// teardown); `out_path` also exports the merged stream when the run ends
/// (".json" => Perfetto trace-event JSON, anything else => CSV — the
/// audit tool's input). `metrics_out` writes the per-period metrics
/// snapshots as CSV, then one `rollup` row per end-of-run total;
/// `prom_out` writes the same rows as Prometheus text exposition (one
/// sample per row, the period as a label). When tracing is compiled out
/// (HAECHI_TRACE=OFF) a recorder is still installed but records only the
/// harness's own bookkeeping events.
struct TraceConfig {
  bool enabled = false;
  bool detail = false;  // also record per-I/O kRdma*/kKv* events
  std::size_t ring_capacity = 1u << 16;
  std::string out_path;
  std::string metrics_out;
  std::string prom_out;
};

/// Online SLO watchdog (src/obs/slo). Any of `enabled`, a nonempty
/// `alerts_out`, or a nonzero `status_interval` arms it; arming forces a
/// flight recorder (the watchdog taps its event stream). `alerts_out`
/// writes one JSON line per alert when the run ends; `status_interval=N`
/// invokes `status_fn` (default: a stderr status line) after every Nth
/// evaluated period. Inert when HAECHI_WATCHDOG=OFF — the wiring
/// compiles out and haechi_sim behaves as before.
struct WatchdogConfig {
  bool enabled = false;
  double guarantee_fraction = 0.95;
  std::string alerts_out;
  std::uint32_t status_interval = 0;
  std::function<void(const obs::PeriodStatus&)> status_fn;
};

/// Closed-loop QoS control plane (src/core/control, DESIGN.md §14): the
/// controller's own config plus its harness inputs. A non-kOff policy (or a
/// scripted swap below) arms the controller, which force-arms the watchdog
/// — the controller feeds on its alert stream. Inert when
/// HAECHI_WATCHDOG=OFF, like the watchdog itself.
struct ControlConfig : core::control::ControllerConfig {
  /// Service classes by client index; missing = permissive default.
  std::map<std::size_t, core::control::ClientClass> classes;
  /// Scripted runtime policy swaps (the --control-api surface): applied
  /// at the first boundary whose period counter is >= `first`.
  std::vector<std::pair<std::uint32_t, core::control::Policy>> api;

  [[nodiscard]] bool armed() const {
    return policy != core::control::Policy::kOff || !api.empty();
  }
};

/// What every single-node backend, simulated or threaded, returns.
struct RunResult {
  explicit RunResult(std::size_t clients) : series(clients) {}

  /// Completed I/Os per measured period per client.
  stats::PeriodSeries series;
  /// The reservation vector actually admitted (tokens per period).
  std::vector<std::int64_t> reservations;
  /// Aggregate throughput over the measurement window.
  double total_kiops = 0.0;
  /// (period index, reported completions, next-period capacity estimate)
  /// — one entry per monitor period, QoS modes only.
  struct CapacityPoint {
    std::uint32_t period;
    std::int64_t completions;
    std::int64_t estimate;
  };
  std::vector<CapacityPoint> capacity_trace;
  core::MonitorCore::Stats monitor_stats;
  /// One entry per client (the *current* engine after any restarts).
  std::vector<core::EngineCore::Stats> engine_stats;
};

class RunPlane {
 public:
  /// A simulated builder passes its simulator: events are stamped with sim
  /// time, and every emitter runs on the simulator thread, so the watchdog
  /// tap takes no lock. The threaded builder passes no simulator but its
  /// wall `clock`, the `actors` rings to preallocate per kind (concurrent
  /// emitters must never resize them), and the `tap_mutex` that serialises
  /// the tap and the ring-wrap notice — the watchdog is single-threaded by
  /// contract.
  RunPlane(const TraceConfig& trace, const WatchdogConfig& watchdog,
           const ControlConfig& control, sim::Simulator* sim,
           obs::Recorder::ClockFn clock = nullptr, std::size_t actors = 0,
           std::mutex* tap_mutex = nullptr);
  RunPlane(const RunPlane&) = delete;
  RunPlane& operator=(const RunPlane&) = delete;

  /// The run's flight recorder (null unless tracing, a trace file, the
  /// watchdog or the controller asked for one).
  [[nodiscard]] obs::Recorder* recorder() { return recorder_.get(); }
  /// The online watchdog (null unless armed; always null when
  /// HAECHI_WATCHDOG=OFF).
  [[nodiscard]] obs::SloWatchdog* watchdog() { return watchdog_.get(); }
  /// The closed-loop controller (null unless armed; always null when
  /// HAECHI_WATCHDOG=OFF).
  [[nodiscard]] core::control::QosController* controller() {
    return controller_.get();
  }
  /// Per-period snapshots, then one rollup row per end-of-run total.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// The watchdog's buffered JSONL alert document ("" when not armed) —
  /// the same bytes `alerts_out` persists.
  [[nodiscard]] const std::string& alerts_jsonl() const;

  /// Appends one harness event straight to the recorder (a no-op without
  /// one). Harness bookkeeping bypasses HAECHI_TRACE_EVENT, so it is
  /// recorded even when the protocol's instrumentation is compiled out.
  void Emit(obs::EventType type, std::uint32_t actor, std::int64_t a = 0,
            std::int64_t b = 0, std::int64_t c = 0) {
    if (recorder_ != nullptr) {
      recorder_->Emit(obs::ActorKind::kHarness, actor, type, 0, a, b, c);
    }
  }
  /// Emit with an explicit timestamp (the threaded measurement markers).
  void EmitAt(SimTime time, obs::EventType type) {
    if (recorder_ != nullptr) {
      recorder_->EmitAt(time, obs::ActorKind::kHarness, 0, type, 0);
    }
  }

  /// The header's first event, kRunConfig (period, token batch, measured
  /// periods). Topology headers such as kClusterConfig follow it.
  void EmitRunConfig(const core::QosConfig& qos, std::size_t measure_periods) {
    Emit(obs::EventType::kRunConfig, 0, qos.period, qos.token_batch,
         static_cast<std::int64_t>(measure_periods));
  }
  /// The header's client half: one kClientSpec per client, then
  /// kControllerConfig when a controller is armed; hands the controller
  /// each client's spec and service class.
  void DeclareClients(const std::vector<ClientSpec>& clients);

  /// A single-node monitor period boundary: applies due swaps, appends the
  /// capacity point and records `monitor.completions` and
  /// `monitor.capacity_estimate`. The builder adds its own per-period
  /// metrics, then calls Snapshot().
  void OnBoundary(std::uint32_t period, std::int64_t completions,
                  std::int64_t estimate);
  /// Applies the scripted control-api swaps due at `period`. They land on
  /// the boundary callback, so the same boundary's PlanBoundary already
  /// sees the new policy.
  void ApplySwaps(std::uint32_t period);
  /// One metrics snapshot per QoS period.
  void Snapshot(std::uint32_t period);
  [[nodiscard]] std::vector<RunResult::CapacityPoint>& capacity_trace() {
    return capacity_trace_;
  }

  /// The simulated measurement window: at `warmup` it emits kMeasureStart
  /// and opens a row in every series, then one more row per `period` until
  /// `periods` rows exist, and measuring() turns false.
  void StartMeasureWindow(SimDuration warmup, SimDuration period,
                          std::size_t periods,
                          std::span<stats::PeriodSeries> series);
  [[nodiscard]] bool measuring() const { return measuring_; }

  /// A builder's end-of-run totals. They land in the registry like any
  /// metric and, at Finish(), as rollup rows after the last period's rows.
  void AddRollup(const std::string& name, std::int64_t delta);
  void SetRollup(const std::string& name, double value);

  /// Harvests `run.total_kiops`, the recorder's `trace.*`, the watchdog's
  /// `watchdog.*` and the controller's `controller.*` totals, appends every
  /// rollup row, then writes the trace file, the alert file, the metrics
  /// CSV and the Prometheus text. Call once, after every emitter stopped.
  void Finish(double total_kiops);

 private:
  void EmitControllerConfig(std::uint32_t period);

  sim::Simulator* sim_;
  obs::Recorder::ClockFn clock_;
  /// Null on the simulator (one emitter thread); the threaded builder's
  /// lock otherwise.
  std::mutex* tap_mutex_;
  TraceConfig trace_;
  std::map<std::size_t, core::control::ClientClass> classes_;
  /// Scripted policy swaps sorted by period; swaps_[next_swap_..] are due.
  std::vector<std::pair<std::uint32_t, core::control::Policy>> swaps_;
  std::size_t next_swap_ = 0;

  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<obs::SloWatchdog> watchdog_;
  std::unique_ptr<obs::JsonlAlertSink> alerts_sink_;
  std::unique_ptr<core::control::QosController> controller_;

  obs::MetricsRegistry metrics_;
  std::set<std::string> rollups_;
  std::uint32_t last_period_ = 0;
  std::vector<RunResult::CapacityPoint> capacity_trace_;

  std::unique_ptr<sim::PeriodicTimer> measure_timer_;
  std::span<stats::PeriodSeries> measure_series_;
  std::size_t measured_periods_ = 0;
  bool measuring_ = false;
};

}  // namespace haechi::harness
