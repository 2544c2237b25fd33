// Mutation fuzz over the trace path: a real short simulator trace, edited
// by a seeded, bounded number of mutations (numeric field flips, INT64
// extremes, renamed kinds and event types, dropped, duplicated and swapped
// lines). Two properties:
//
//   * every mutant is either rejected by ParseCsvTrace with an error, or
//     runs through both witnesses (AuditTrace and ReplayTrace) to the end —
//     no crash, no hang, no signed overflow (the asan preset aborts on
//     undefined behaviour);
//   * the witnesses agree by construction: on a single-node trace, a
//     mutation confined to the a/b/c payload of one monitor row fails the
//     audit's A2, A3 or A4 exactly when the replay raises pool_conservation.
//
// No external fuzzing engine: the mutants are a pure function of the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/audit.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "workload/distributions.hpp"

namespace haechi {
namespace {

#if HAECHI_TRACE_ENABLED

using obs::EventType;
using obs::TraceEvent;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// A short single-node run with conversion, reports and calibration: four
/// clients, one of them under-demanding so token conversion recycles its
/// reservation.
std::vector<TraceEvent> BaseTrace() {
  harness::ExperimentConfig config;
  config.mode = harness::Mode::kHaechi;
  config.net.capacity_scale = 0.01;
  config.warmup = Seconds(1);
  config.measure_periods = 2;
  config.records = 256;
  config.seed = 3;
  config.trace.enabled = true;
  const auto cap = static_cast<std::int64_t>(config.net.GlobalCapacityIops());
  const std::int64_t reserved = cap * 8 / 10;
  const auto reservations = workload::UniformShare(reserved, 4);
  for (std::size_t i = 0; i < reservations.size(); ++i) {
    harness::ClientSpec spec;
    spec.reservation = reservations[i];
    spec.demand = i == 0 ? reservations[i] / 2
                         : reservations[i] + (cap - reserved) / 2;
    spec.pattern = workload::RequestPattern::kOpenLoop;
    config.clients.push_back(spec);
  }
  harness::Experiment experiment(std::move(config));
  experiment.Run();
  return experiment.recorder()->Merged();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out = fields.empty() ? "" : fields[0];
  for (std::size_t i = 1; i < fields.size(); ++i) out += "," + fields[i];
  return out;
}

/// Every name the parser accepts for an event type.
std::vector<std::string> EventTypeNames() {
  std::vector<std::string> names;
  for (int v = 0; v < 256; ++v) {
    const auto type = static_cast<EventType>(v);
    const std::string name(obs::ToString(type));
    EventType back{};
    if (obs::EventTypeFromName(name, back) && back == type) {
      names.push_back(name);
    }
  }
  return names;
}

class TraceFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    events_ = new std::vector<TraceEvent>(BaseTrace());
    csv_ = new std::string(obs::ToCsvString(*events_));
  }
  static void TearDownTestSuite() {
    delete events_;
    delete csv_;
    events_ = nullptr;
    csv_ = nullptr;
  }

  static std::vector<TraceEvent>* events_;
  static std::string* csv_;
};

std::vector<TraceEvent>* TraceFuzz::events_ = nullptr;
std::string* TraceFuzz::csv_ = nullptr;

/// A replacement for numeric field `value`: a bit flip, a neighbour, an
/// extreme, or noise.
std::string FlipNumber(const std::string& value, std::mt19937_64& rng) {
  std::int64_t x = 0;
  std::istringstream(value) >> x;
  switch (rng() % 6) {
    case 0:
      return std::to_string(static_cast<std::int64_t>(
          static_cast<std::uint64_t>(x) ^ (std::uint64_t{1} << (rng() % 64))));
    case 1:
      return std::to_string(x == kMax ? x : x + 1);
    case 2:
      return std::to_string(x == kMin ? x : x - 1);
    case 3:
      return std::to_string(kMin);
    case 4:
      return std::to_string(kMax);
    default:
      return std::to_string(static_cast<std::int64_t>(rng()));
  }
}

TEST_F(TraceFuzz, EveryMutantIsRejectedOrJudgedToTheEnd) {
  const std::vector<std::string> base = SplitLines(*csv_);
  ASSERT_GT(base.size(), 100u);
  const std::vector<std::string> type_names = EventTypeNames();
  const char* const kind_names[] = {"monitor", "engine",  "fabric",
                                    "kv",      "harness", "cluster",
                                    "controller"};
  // CSV columns: time_ns,kind,actor,seq,type,period,a,b,c.
  const std::size_t numeric[] = {0, 2, 3, 5, 6, 7, 8};
  int rejected = 0;
  int judged = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> lines = base;
    std::string applied;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      // Line 0 is the header; every mutation edits the body.
      const std::size_t i = 1 + rng() % (lines.size() - 1);
      const int op = static_cast<int>(rng() % 6);
      applied += " op" + std::to_string(op) + "@" + std::to_string(i);
      auto fields = Fields(lines[i]);
      if (fields.size() != 9) continue;  // already mangled by a drop
      switch (op) {
        case 0:
        case 1: {  // numeric field flip
          const std::size_t f = numeric[rng() % std::size(numeric)];
          fields[f] = FlipNumber(fields[f], rng);
          lines[i] = JoinFields(fields);
          break;
        }
        case 2:  // rename the event type or the actor kind
          if (rng() % 2 == 0) {
            fields[4] = type_names[rng() % type_names.size()];
          } else {
            fields[1] = kind_names[rng() % std::size(kind_names)];
          }
          lines[i] = JoinFields(fields);
          break;
        case 3:  // drop
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 4:  // duplicate
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                       lines[i]);
          break;
        default:  // swap with the next line
          if (i + 1 < lines.size()) std::swap(lines[i], lines[i + 1]);
          break;
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ":" + applied);
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    const auto parsed = obs::ParseCsvTrace(text);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().ToString().empty());
      ++rejected;
      continue;
    }
    const obs::AuditReport report = obs::AuditTrace(parsed.value());
    (void)obs::ReplayTrace(parsed.value());
    EXPECT_GT(report.checks_run, 0);
    ++judged;
  }
  // The mutation mix exercises both outcomes.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(judged, 0);
}

TEST_F(TraceFuzz, PayloadMutantsConvictUnderBothWitnessesOrNeither) {
  {
    const obs::AuditReport base = obs::AuditTrace(*events_);
    ASSERT_TRUE(base.ok()) << base.Summary();
    for (const obs::Alert& alert : obs::ReplayTrace(*events_)) {
      EXPECT_NE(alert.kind, obs::AlertKind::kPoolConservation)
          << obs::ToJsonl(alert);
    }
  }
  // Monitor rows, with the pool-ledger rows listed twice as often so the
  // A2/A3/A4 paths see most of the mutants.
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < events_->size(); ++i) {
    const TraceEvent& e = (*events_)[i];
    if (e.actor_kind != obs::ActorKind::kMonitor) continue;
    rows.push_back(i);
    switch (e.type) {
      case EventType::kMonitorPeriodStart:
      case EventType::kMonitorPeriodEnd:
      case EventType::kPoolSample:
      case EventType::kTokenConvert:
        rows.push_back(i);
        break;
      default:
        break;
    }
  }
  ASSERT_FALSE(rows.empty());
  int convicted = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<TraceEvent> mutant = *events_;
    const std::size_t row = rows[rng() % rows.size()];
    TraceEvent& e = mutant[row];
    std::int64_t* const payload[] = {&e.a, &e.b, &e.c};
    std::int64_t& field = *payload[rng() % 3];
    std::int64_t value = field;
    switch (rng() % 5) {
      case 0:
        value = kMin;
        break;
      case 1:
        value = kMax;
        break;
      case 2:
        value = 0;
        break;
      default: {
        const auto delta = static_cast<std::int64_t>(rng() % 2000) - 1000;
        value = field > kMax - 1000 || field < kMin + 1000 ? 0 : field + delta;
        break;
      }
    }
    if (value == field) continue;
    field = value;
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 std::string(obs::ToString(e.type)) + " at row " +
                 std::to_string(row));
    const obs::AuditReport report = obs::AuditTrace(mutant);
    const bool audit_convicts = std::any_of(
        report.violations.begin(), report.violations.end(),
        [](const obs::AuditViolation& v) {
          return v.check == "A2" || v.check == "A3" || v.check == "A4";
        });
    const auto alerts = obs::ReplayTrace(mutant);
    const bool replay_convicts =
        std::any_of(alerts.begin(), alerts.end(), [](const obs::Alert& a) {
          return a.kind == obs::AlertKind::kPoolConservation;
        });
    EXPECT_EQ(audit_convicts, replay_convicts) << report.Summary();
    if (audit_convicts) ++convicted;
  }
  EXPECT_GT(convicted, 10);
}

#endif  // HAECHI_TRACE_ENABLED

}  // namespace
}  // namespace haechi
