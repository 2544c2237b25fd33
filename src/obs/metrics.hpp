// Metrics registry: named counters, gauges and log-bucketed histograms
// with per-period snapshots, unified with src/stats (histograms are
// stats::Histogram, exports go through stats::CsvWriter).
//
// Counters are monotonically increasing int64s; gauges are last-write-wins
// doubles; histograms log-bucket int64 samples. A snapshot captures every
// registered metric at a QoS-period boundary, so the registry yields the
// same per-period trajectory the paper's figures are drawn from, for any
// metric, without bespoke plumbing per experiment.
//
// Names are stable identifiers ("engine.faa_ops", "monitor.pool.initial");
// registration is idempotent — Counter("x") returns the same cell every
// call. Deterministic iteration (std::map) keeps CSV exports byte-stable.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "stats/csv.hpp"
#include "stats/histogram.hpp"

namespace haechi::obs {

class MetricsRegistry {
 public:
  /// Returns the counter cell for `name`, creating it at zero.
  std::int64_t& Counter(const std::string& name);
  /// Returns the gauge cell for `name`, creating it at zero.
  double& Gauge(const std::string& name);
  /// Returns the histogram for `name`, creating it empty.
  stats::Histogram& Histogram(const std::string& name);

  void Add(const std::string& name, std::int64_t delta) {
    Counter(name) += delta;
  }
  void Set(const std::string& name, double value) { Gauge(name) = value; }
  void Record(const std::string& name, std::int64_t sample) {
    Histogram(name).Record(sample);
  }

  [[nodiscard]] std::int64_t CounterValue(const std::string& name) const;
  [[nodiscard]] double GaugeValue(const std::string& name) const;
  [[nodiscard]] bool Has(const std::string& name) const;

  /// One metric's state at a period boundary.
  struct SnapshotRow {
    std::uint32_t period = 0;
    std::string name;
    std::string kind;          // "counter" | "gauge" | "histogram_p50" ...
    double value = 0.0;        // cumulative value at the boundary
    double delta = 0.0;        // change since the previous snapshot
  };

  /// Captures all counters/gauges (cumulative + delta since the previous
  /// snapshot) and histogram quantiles, tagged with `period`.
  void SnapshotPeriod(std::uint32_t period);

  /// Snapshots only the histograms whose name starts with `prefix`, with
  /// the full quantile ladder (count/p50/p95/p99/p999/max). Used for the
  /// per-period span-stage distributions, which are assembled after the
  /// run and replayed period by period — SnapshotPeriod's row kinds stay
  /// untouched so existing golden CSVs remain byte-stable.
  void SnapshotHistograms(std::uint32_t period, const std::string& prefix);

  /// Appends one row of kind "rollup" per named counter or gauge, tagged
  /// with `period` (the run's last boundary): end-of-run totals go after
  /// every per-period row, so those rows stay byte-stable.
  void AppendRollups(std::uint32_t period, const std::set<std::string>& names);

  [[nodiscard]] const std::vector<SnapshotRow>& snapshots() const {
    return snapshots_;
  }

  /// Long-format CSV: period,name,kind,value,delta — one row per metric per
  /// snapshot.
  [[nodiscard]] stats::CsvWriter ToCsv() const;

  /// Prometheus text exposition (one sample per snapshot row): metric names
  /// sanitized to [a-zA-Z0-9_] with a `haechi_` prefix, the QoS period as a
  /// `period` label, histogram quantiles flattened into per-kind series.
  /// Deterministic for byte-stable golden files, like ToCsv().
  [[nodiscard]] std::string ToPrometheus() const;

 private:
  /// Appends one row; its delta is against the last row of (kind, name).
  void Push(std::uint32_t period, const std::string& name, const char* kind,
            double value);

  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, stats::Histogram> histograms_;
  std::map<std::string, double> last_snapshot_;  // per metric cumulative
  std::vector<SnapshotRow> snapshots_;
};

}  // namespace haechi::obs
