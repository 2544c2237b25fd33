// Run-plane parity: the simulated, cluster and threaded builders share one
// RunPlane, so a trace-file request, the end-of-run rollups and the ring
// truncation accounting behave the same on every backend.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/cluster_experiment.hpp"
#include "harness/experiment.hpp"
#include "harness/runtime_experiment.hpp"
#include "obs/audit.hpp"
#include "obs/export.hpp"

namespace haechi {
namespace {

// A short run both single-node backends execute as is: the profiled
// capacities pin the simulator to the threaded backend's token budget.
harness::ExperimentConfig SmallConfig() {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.qos.period = Millis(100);
  config.qos.token_tick = Millis(2);
  config.qos.report_interval = Millis(2);
  config.qos.check_interval = Millis(2);
  config.qos.token_batch = 50;
  config.qos.pool_retry_interval = Millis(2);
  config.qos.faa_end_guard = Millis(20);
  config.profiled_global_iops = 20000;
  config.profiled_local_iops = 8000;
  config.records = 1024;
  config.warmup = Millis(200);
  config.measure_periods = 3;
  for (const std::int64_t r : {500, 400, 200, 100}) {
    harness::ClientSpec spec;
    spec.reservation = r;
    spec.demand = r + 100;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  return config;
}

harness::ClusterExperimentConfig SmallClusterConfig() {
  harness::ClusterExperimentConfig config;
  config.data_nodes = 2;
  config.net.capacity_scale = 0.02;
  config.warmup = Seconds(1);
  config.measure_periods = 2;
  config.records = 256;
  config.qos.token_batch = 50;
  const auto cap = static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  harness::ClusterClientSpec spec;
  spec.reservation = cap / 4;
  spec.demand_per_node = {cap / 6, cap / 6};
  config.clients = {spec, spec};
  config.tenants = {{2 * spec.reservation, 0}};
  return config;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "haechi_run_plane_" + name;
}

std::string ReadOrEmpty(const std::string& path) {
  const auto text = obs::ReadFileToString(path);
  return text.ok() ? text.value() : std::string();
}

/// The value of the rollup row `name` in a metrics CSV, or -1 if absent.
double RollupValue(const std::string& csv, const std::string& name) {
  const std::string key = "," + name + ",rollup,";
  const std::size_t at = csv.find(key);
  if (at == std::string::npos) return -1.0;
  return std::stod(csv.substr(at + key.size()));
}

void ExpectTraceFileAudits(const std::string& path) {
  const std::string text = ReadOrEmpty(path);
  ASSERT_FALSE(text.empty()) << "no trace written to " << path;
  const auto events = obs::ParseCsvTrace(text);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
#if HAECHI_TRACE_ENABLED
  const obs::AuditReport report = obs::AuditTrace(events.value());
  EXPECT_TRUE(report.ok()) << report.Summary();
#endif
  std::remove(path.c_str());
}

TEST(RunPlane, TraceOutPathAloneArmsTheRecorderOnEveryBackend) {
  harness::ExperimentConfig sim_config = SmallConfig();
  sim_config.trace.out_path = TempPath("sim.csv");
  harness::Experiment sim(sim_config);
  sim.Run();
  ExpectTraceFileAudits(sim_config.trace.out_path);

  harness::ExperimentConfig threaded_config = SmallConfig();
  threaded_config.trace.out_path = TempPath("threads.csv");
  harness::ThreadedExperiment threaded(threaded_config);
  threaded.Run();
  ExpectTraceFileAudits(threaded_config.trace.out_path);
}

TEST(RunPlane, RunRollupsReachTheMetricsCsvOnEveryBackend) {
  const auto check = [](const std::string& path, const char* backend) {
    const std::string csv = ReadOrEmpty(path);
    EXPECT_GT(RollupValue(csv, "run.total_kiops"), 0.0) << backend;
    EXPECT_GE(RollupValue(csv, "trace.dropped_events"), 0.0) << backend;
    std::remove(path.c_str());
  };

  harness::ExperimentConfig sim_config = SmallConfig();
  sim_config.trace.enabled = true;
  sim_config.trace.metrics_out = TempPath("sim_metrics.csv");
  harness::Experiment(sim_config).Run();
  check(sim_config.trace.metrics_out, "sim");

  harness::ClusterExperimentConfig cluster_config = SmallClusterConfig();
  cluster_config.trace.enabled = true;
  cluster_config.trace.metrics_out = TempPath("cluster_metrics.csv");
  harness::ClusterExperiment(cluster_config).Run();
  check(cluster_config.trace.metrics_out, "cluster");

  harness::ExperimentConfig threaded_config = SmallConfig();
  threaded_config.trace.enabled = true;
  threaded_config.trace.metrics_out = TempPath("threads_metrics.csv");
  harness::ThreadedExperiment(threaded_config).Run();
  check(threaded_config.trace.metrics_out, "threads");
}

TEST(RunPlane, ThreadedRingWrapWithoutWatchdogIsCountedInTheMetricsCsv) {
  harness::ExperimentConfig config = SmallConfig();
  config.trace.enabled = true;
  config.trace.ring_capacity = 64;  // far too small for the monitor stream
  config.trace.metrics_out = TempPath("wrap_metrics.csv");
  harness::ThreadedExperiment experiment(config);
  experiment.Run();
  EXPECT_EQ(experiment.watchdog(), nullptr);
  const std::string csv = ReadOrEmpty(config.trace.metrics_out);
#if HAECHI_TRACE_ENABLED
  EXPECT_GT(RollupValue(csv, "trace.dropped_events"), 0.0);
#else
  EXPECT_GE(RollupValue(csv, "trace.dropped_events"), 0.0);
#endif
  std::remove(config.trace.metrics_out.c_str());
}

}  // namespace
}  // namespace haechi
