// Experiment assembly: builds the simulated cluster (1 data node + N client
// nodes), wires the chosen QoS mode, drives the workload, and collects the
// per-period/per-client measurements every figure of the paper is made of.
//
// This is the single entry point used by all bench binaries, the examples,
// and the integration tests.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/control/controller.hpp"
#include "core/engine.hpp"
#include "core/monitor.hpp"
#include "kvstore/client.hpp"
#include "kvstore/server.hpp"
#include "net/model_params.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rdma/fabric.hpp"
#include "rdma/fault.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "stats/period_series.hpp"
#include "workload/generator.hpp"

namespace haechi::harness {

/// Which QoS mechanism runs on the cluster.
enum class Mode {
  kBare,         // no QoS: the paper's baseline
  kHaechi,       // full protocol
  kBasicHaechi,  // Haechi without token conversion (Fig 10/11 ablation)
};

/// Which I/O path clients use.
enum class IoPath { kOneSided, kTwoSided };

/// Per-client experiment parameters (all rates in I/Os per QoS period).
struct ClientSpec {
  std::int64_t reservation = 0;
  std::int64_t limit = 0;  // 0 = unlimited
  std::int64_t demand = 0;
  workload::RequestPattern pattern = workload::RequestPattern::kBurst;
  /// YCSB-style write mix (0.0 = the paper's read-only workload C).
  double write_fraction = 0.0;
};

struct ExperimentConfig {
  Mode mode = Mode::kHaechi;
  IoPath io_path = IoPath::kOneSided;
  std::vector<ClientSpec> clients;

  net::ModelParams net;
  core::QosConfig qos;

  /// Profiled capacities fed to admission control and Algorithm 1; 0 means
  /// "use the fabric model's analytic value" (the calibrated C_G / C_L).
  double profiled_global_iops = 0.0;
  double profiled_local_iops = 0.0;

  std::uint64_t records = 16384;
  bool copy_payloads = false;  // true: READs move real bytes (slower)
  std::size_t outstanding = 64;

  SimDuration warmup = Seconds(3);
  std::size_t measure_periods = 30;
  std::uint64_t seed = 42;

  /// Threaded runtime only: worker threads multiplexing the client I/O
  /// loops (clients are assigned round-robin). 0 = one worker per client.
  /// The simulator ignores this.
  std::size_t runtime_workers = 0;

  workload::KeyChooser::Kind key_kind =
      workload::KeyChooser::Kind::kUniformRandom;
  double key_theta = 0.99;

  /// Background one-sided traffic per client node (I/Os per period),
  /// active in [background_on, background_off) — the Set-4 congestion
  /// injection. 0 disables.
  std::int64_t background_demand = 0;
  SimTime background_on = 0;
  SimTime background_off = kSimTimeMax;

  /// Deterministic fabric fault schedule (drops/delays/duplicates/QP
  /// errors/node events), installed before the run starts. Empty = none.
  rdma::FaultPlan faults;

  /// Scripted whole-client failure: at crash_at the client's node crashes
  /// (engine and generators stop mid-flight; the monitor's report lease
  /// later reclaims its reservation). At restart_at — if not kSimTimeMax —
  /// the node restarts with fresh QPs and the client re-admits under its
  /// old id (the re-admission handshake) and resumes its workload.
  struct ClientFault {
    std::size_t client = 0;
    SimTime crash_at = 0;
    SimTime restart_at = kSimTimeMax;
  };
  std::vector<ClientFault> client_faults;

  /// Flight-recorder tracing (src/obs). `enabled` installs a Recorder for
  /// the whole run (cluster build through teardown); `out_path` also
  /// exports the merged stream when the run ends (".json" => Perfetto
  /// trace-event JSON, anything else => CSV — the audit tool's input).
  /// `metrics_out` writes the per-period metrics snapshots as CSV;
  /// `prom_out` writes the same snapshots as Prometheus text exposition
  /// (one sample per row, the period as a label). When tracing is compiled
  /// out (HAECHI_TRACE=OFF) a recorder is still installed but records only
  /// the harness's own bookkeeping events.
  struct TraceConfig {
    bool enabled = false;
    bool detail = false;  // also record per-I/O kRdma*/kKv* events
    std::size_t ring_capacity = 1u << 16;
    std::string out_path;
    std::string metrics_out;
    std::string prom_out;
  };
  TraceConfig trace;

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
  WatchdogConfig watchdog;

  /// Closed-loop QoS control plane (src/core/control, DESIGN.md §14). A
  /// non-kOff policy (or a scripted swap below) arms the controller, which
  /// force-arms the watchdog — the controller feeds on its alert stream.
  /// Inert when HAECHI_WATCHDOG=OFF, like the watchdog itself.
  struct ControlConfig {
    core::control::Policy policy = core::control::Policy::kOff;
    std::uint32_t rules = core::control::kAllRules;
    std::uint32_t quiet_periods = 1;
    std::uint32_t oscillation_quiet = 6;
    std::uint32_t eta_recover_after = 16;
    std::int64_t min_reservation = 0;
    /// Service classes by client index; missing = permissive default.
    std::map<std::size_t, core::control::ClientClass> classes;
    /// Scripted runtime policy swaps (the --control-api surface): applied
    /// at the first boundary whose period counter is >= `first`.
    std::vector<std::pair<std::uint32_t, core::control::Policy>> api;

    [[nodiscard]] bool armed() const {
      return policy != core::control::Policy::kOff || !api.empty();
    }
    [[nodiscard]] core::control::ControllerConfig ToControllerConfig() const {
      core::control::ControllerConfig out;
      out.policy = policy;
      out.rules = rules;
      out.quiet_periods = quiet_periods;
      out.oscillation_quiet = oscillation_quiet;
      out.eta_recover_after = eta_recover_after;
      out.min_reservation = min_reservation;
      return out;
    }
  };
  ControlConfig control;
};

struct ExperimentResult {
  /// Completed I/Os per measured period per client.
  stats::PeriodSeries series;
  /// The reservation vector actually admitted (tokens per period).
  std::vector<std::int64_t> reservations;
  /// Submit-to-completion latency over the measurement window (ns).
  stats::Histogram latency;
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
  core::QosMonitor::Stats monitor_stats;
  /// One entry per client (the *current* engine after any restarts).
  std::vector<core::ClientQosEngine::Stats> engine_stats;
  std::uint64_t events_run = 0;
  /// Fabric fault-injection counters (zero when no plan was installed).
  rdma::Fabric::FaultStats fault_stats;
  /// Per-I/O spans assembled from the detail trace (empty unless
  /// trace.detail was on and tracing is compiled in), sorted by
  /// (engine, io_id) — the profiler's input.
  std::vector<obs::IoSpan> spans;
  obs::SpanAssemblyStats span_stats;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Builds the cluster, runs warm-up plus the measurement window, and
  /// returns the collected results.
  ExperimentResult Run();

  // --- introspection for integration tests (valid after Run()) -----------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] rdma::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] core::QosMonitor* monitor() { return monitor_.get(); }
  /// The client's *current* engine (the newest incarnation after restarts).
  [[nodiscard]] core::ClientQosEngine& engine(std::size_t i) {
    return *rigs_.at(i).engine;
  }
  [[nodiscard]] kvstore::KvServer& server() { return *server_; }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  /// The run's flight recorder (null unless config.trace asked for one).
  [[nodiscard]] obs::Recorder* recorder() { return recorder_.get(); }
  /// Per-period metrics snapshots (populated for QoS modes during Run).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// The online watchdog (null unless config.watchdog armed one — always
  /// null when HAECHI_WATCHDOG=OFF).
  [[nodiscard]] obs::SloWatchdog* watchdog() { return watchdog_.get(); }
  /// The closed-loop controller (null unless config.control armed one —
  /// always null when HAECHI_WATCHDOG=OFF).
  [[nodiscard]] core::control::QosController* controller() {
    return controller_.get();
  }
  /// The watchdog's buffered JSONL alert document ("" when not armed) —
  /// the same bytes `alerts_out` persists.
  [[nodiscard]] const std::string& alerts_jsonl() const {
    static const std::string kEmpty;
    return alerts_sink_ != nullptr ? alerts_sink_->buffer() : kEmpty;
  }

 private:
  /// The live machinery of one client. Pointers move to new incarnations
  /// on restart; retired objects stay owned by the pools below (in-flight
  /// simulator callbacks may still reach them).
  struct ClientRig {
    rdma::Node* node = nullptr;
    kvstore::KvClient* kv = nullptr;
    core::ClientQosEngine* engine = nullptr;  // null in bare mode
    workload::DemandGenerator* generator = nullptr;
  };

  void BuildCluster();
  void BuildClient(std::size_t index);
  /// (Re-)creates the client's QPs, KV client, engine and generator on its
  /// existing node; used at build time and again after a node restart.
  void WireClient(std::size_t index);
  void CrashClient(std::size_t index);
  void RestartClient(std::size_t index);
  /// Controller kReadmit action: stop the client's current incarnation and
  /// re-wire it under its old id (deferred to the next sim event).
  void ReadmitClient(std::size_t index);
  void BuildBackground(std::size_t index);
  /// Record-sized dummy payload shared by all PUTs (its bytes only matter
  /// when payload copying is on).
  [[nodiscard]] std::span<const std::byte> WriteValue();
  /// Adds a completed I/O to the measured series. Only I/Os the data node
  /// actually served count: under fault injection a flushed or timed-out
  /// op completes with an error and delivered no service.
  void CountServed(ClientId client,
                   const kvstore::KvClient::Completion& completion);

  ExperimentConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<kvstore::KvServer> server_;
  std::unique_ptr<core::QosMonitor> monitor_;
  // Ownership pools; entries are never destroyed mid-run (restart retires
  // the old incarnation here — its CQ callbacks and timers must stay
  // valid) — rigs_ points at the live ones.
  std::vector<std::unique_ptr<kvstore::KvClient>> kv_clients_;
  std::vector<std::unique_ptr<core::ClientQosEngine>> engines_;
  std::vector<std::unique_ptr<workload::DemandGenerator>> generators_;
  std::vector<ClientRig> rigs_;
  std::vector<std::unique_ptr<kvstore::KvClient>> background_clients_;
  std::vector<std::unique_ptr<workload::DemandGenerator>> background_gens_;
  std::unique_ptr<ExperimentResult> result_;
  std::unique_ptr<obs::Recorder> recorder_;
  // Null unless config_.watchdog arms them (never armed when
  // HAECHI_WATCHDOG=OFF).
  std::unique_ptr<obs::SloWatchdog> watchdog_;
  std::unique_ptr<obs::JsonlAlertSink> alerts_sink_;
  std::unique_ptr<core::control::QosController> controller_;
  /// Scripted policy swaps not yet applied (drained by the period hook).
  std::size_t control_api_next_ = 0;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<sim::PeriodicTimer> measure_timer_;
  std::size_t measured_periods_ = 0;
  bool measuring_ = false;
  std::vector<std::byte> write_value_;
};

/// Convenience: N identical clients.
std::vector<ClientSpec> UniformClients(std::size_t n, std::int64_t reservation,
                                       std::int64_t demand,
                                       workload::RequestPattern pattern);

}  // namespace haechi::harness
