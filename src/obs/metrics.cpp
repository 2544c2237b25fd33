#include "obs/metrics.hpp"

#include <cstdio>

namespace haechi::obs {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::int64_t& MetricsRegistry::Counter(const std::string& name) {
  return counters_[name];
}

double& MetricsRegistry::Gauge(const std::string& name) {
  return gauges_[name];
}

stats::Histogram& MetricsRegistry::Histogram(const std::string& name) {
  return histograms_.try_emplace(name).first->second;
}

std::int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

bool MetricsRegistry::Has(const std::string& name) const {
  return counters_.contains(name) || gauges_.contains(name) ||
         histograms_.contains(name);
}

void MetricsRegistry::Push(std::uint32_t period, const std::string& name,
                           const char* kind, double value) {
  const std::string key = std::string(kind) + ":" + name;
  const double delta = value - last_snapshot_[key];
  last_snapshot_[key] = value;
  snapshots_.push_back({period, name, kind, value, delta});
}

void MetricsRegistry::SnapshotPeriod(std::uint32_t period) {
  for (const auto& [name, value] : counters_) {
    Push(period, name, "counter", static_cast<double>(value));
  }
  for (const auto& [name, value] : gauges_) Push(period, name, "gauge", value);
  for (const auto& [name, histogram] : histograms_) {
    Push(period, name, "histogram_count",
         static_cast<double>(histogram.Count()));
    Push(period, name, "histogram_p50",
         static_cast<double>(histogram.ValueAtQuantile(0.5)));
    Push(period, name, "histogram_p99",
         static_cast<double>(histogram.ValueAtQuantile(0.99)));
    Push(period, name, "histogram_max", static_cast<double>(histogram.Max()));
  }
}

void MetricsRegistry::SnapshotHistograms(std::uint32_t period,
                                         const std::string& prefix) {
  for (const auto& [name, histogram] : histograms_) {
    if (name.rfind(prefix, 0) != 0) continue;
    Push(period, name, "histogram_count",
         static_cast<double>(histogram.Count()));
    Push(period, name, "histogram_p50",
         static_cast<double>(histogram.ValueAtQuantile(0.5)));
    Push(period, name, "histogram_p95",
         static_cast<double>(histogram.ValueAtQuantile(0.95)));
    Push(period, name, "histogram_p99",
         static_cast<double>(histogram.ValueAtQuantile(0.99)));
    Push(period, name, "histogram_p999",
         static_cast<double>(histogram.ValueAtQuantile(0.999)));
    Push(period, name, "histogram_max", static_cast<double>(histogram.Max()));
  }
}

void MetricsRegistry::AppendRollups(std::uint32_t period,
                                    const std::set<std::string>& names) {
  for (const std::string& name : names) {
    const auto counter = counters_.find(name);
    Push(period, name, "rollup",
         counter != counters_.end() ? static_cast<double>(counter->second)
                                    : GaugeValue(name));
  }
}

stats::CsvWriter MetricsRegistry::ToCsv() const {
  stats::CsvWriter csv({"period", "name", "kind", "value", "delta"});
  for (const SnapshotRow& row : snapshots_) {
    csv.AddRow({std::to_string(row.period), row.name, row.kind,
                FormatDouble(row.value), FormatDouble(row.delta)});
  }
  return csv;
}

namespace {

// "engine.faa_ops" -> "haechi_engine_faa_ops": Prometheus metric names are
// [a-zA-Z_:][a-zA-Z0-9_:]*, so dots and any other punctuation collapse to
// underscores.
std::string PromName(const std::string& name, const std::string& kind) {
  std::string out = "haechi_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  // Histogram quantile rows keep their kind suffix ("histogram_p99" ->
  // "_p99") so each quantile is its own series; plain counters and gauges
  // need no suffix.
  if (kind.rfind("histogram_", 0) == 0) {
    out.push_back('_');
    out += kind.substr(sizeof("histogram_") - 1);
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  // One exposition covering every snapshot, the period as a label — the
  // text-format analogue of ToCsv()'s long format. Scrape-style consumers
  // read the last sample per series; offline tooling gets the full
  // per-period trajectory in one file.
  std::string out;
  for (const SnapshotRow& row : snapshots_) {
    out += PromName(row.name, row.kind);
    out += "{period=\"";
    out += std::to_string(row.period);
    out += "\"} ";
    out += FormatDouble(row.value);
    out += '\n';
  }
  return out;
}

}  // namespace haechi::obs
