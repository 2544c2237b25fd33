// Experiment assembly: builds the simulated cluster (1 data node + N client
// nodes), wires the chosen QoS mode, drives the workload, and collects the
// per-period/per-client measurements every figure of the paper is made of.
//
// This is the single entry point used by all bench binaries, the examples,
// and the integration tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/monitor.hpp"
#include "harness/run_plane.hpp"
#include "kvstore/client.hpp"
#include "kvstore/server.hpp"
#include "net/model_params.hpp"
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

  using TraceConfig = harness::TraceConfig;
  TraceConfig trace;

  using WatchdogConfig = harness::WatchdogConfig;
  WatchdogConfig watchdog;

  using ControlConfig = harness::ControlConfig;
  ControlConfig control;
};

/// The simulated backend's result: the shared RunResult plus what only a
/// discrete-event run can measure.
struct ExperimentResult : RunResult {
  using RunResult::RunResult;

  /// Submit-to-completion latency over the measurement window (ns).
  stats::Histogram latency;
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
  // The run plane's parts (see RunPlane): null unless config asked for
  // them; the watchdog and controller are always null when
  // HAECHI_WATCHDOG=OFF.
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
  // After the simulator its recorder and measurement timer use.
  RunPlane plane_;
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
  std::vector<std::byte> write_value_;
};

/// Convenience: N identical clients.
std::vector<ClientSpec> UniformClients(std::size_t n, std::int64_t reservation,
                                       std::int64_t demand,
                                       workload::RequestPattern pattern);

}  // namespace haechi::harness
