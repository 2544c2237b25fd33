// haechi_audit — trace-replay verifier.
//
// Reads a CSV trace exported by the flight recorder (harness
// ExperimentConfig::trace.out_path or `haechi_sim --trace-out=...`) and
// re-derives the PeriodLedger conservation identities and the
// reservation-guarantee invariant purely from the events (DESIGN.md §9.3).
// Cluster traces (haechi_sim --cluster) additionally replay the split,
// borrow and node-commitment identities C1..C3 (DESIGN.md §12).
// Exit code 0 = every identity holds, 2 = usage or unreadable/corrupt
// trace; failed identities map to three disjoint exit-code ranges:
//   11..20  core identity Ak (exit 10+k), e.g. 13 = pool monotonicity,
//           19 = missed reservation guarantee
//   21..23  cluster identity Ck (exit 20+k), e.g. 22 = borrow ledger
//   31..34  survivability identity (exit 30+k): 31 = A11 checkpoint
//           consistency, 34 = C4 migration sum-neutrality
// 1 = violations whose check tag could not be parsed (never expected).
//
// Examples:
//   haechi_sim --trace-out=/tmp/run.csv && haechi_audit --trace=/tmp/run.csv
//   haechi_audit --trace=/tmp/chaos.csv --guarantee-fraction=0.9
#include <cstdio>

#include "common/flags.hpp"
#include "obs/audit.hpp"
#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"

using namespace haechi;

namespace {

constexpr const char* kUsage = R"(haechi_audit - verify a QoS event trace

flags:
  --trace=PATH               CSV trace to audit (required; also accepted as
                             the sole positional argument)
  --guarantee-fraction=F     completed >= F * min(R, demand) per measured
                             period [0.95]
  --allow-truncated          accept traces whose rings wrapped (skips
                             count-based checks on truncated actors)
  --spans                    instead of auditing, assemble per-I/O spans
                             from a detail trace (--trace-detail) and print
                             the per-client/per-stage percentile table;
                             byte-identical across same-seed runs
  --quiet                    print only the verdict line

exit codes: 0 = PASS, 2 = usage/corrupt trace, 10+k = core check Ak
            failed, 20+k = cluster check Ck failed, 30+k = survivability
            check failed (31 = A11 checkpoint consistency, 34 = C4
            migration sum-neutrality)
)";

// The three identity families own disjoint exit-code ranges; scripts key
// off them, so keep the bands from ever colliding. FirstFailedCheck
// returns the code minus kExitBase.
constexpr int kExitBase = 10;
constexpr int kCoreFirst = kExitBase + 1;        // A1  -> 11
constexpr int kCoreLast = kExitBase + 10;        // A10 -> 20
constexpr int kClusterFirst = kExitBase + 11;    // C1  -> 21
constexpr int kClusterLast = kExitBase + 13;     // C3  -> 23
constexpr int kSurviveFirst = kExitBase + 21;    // A11 -> 31
constexpr int kSurviveLast = kExitBase + 24;     // C4  -> 34
static_assert(kCoreLast < kClusterFirst,
              "core (10+k) and cluster (20+k) audit exit ranges overlap");
static_assert(kClusterLast < kSurviveFirst,
              "cluster (20+k) and survivability (30+k) audit exit ranges "
              "overlap");
static_assert(kCoreFirst > 2,
              "audit identity exit codes collide with usage (2) / "
              "unparsable (1)");
static_assert(kSurviveLast == 34, "A11 must exit 31 and C4 must exit 34");

int Run(int argc, const char* const* argv) {
  auto parsed = Flags::Parse(
      argc, argv,
      {"trace", "guarantee-fraction", "allow-truncated", "spans", "quiet",
       "help"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const Flags& flags = parsed.value();
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  std::string path = flags.GetString("trace", "");
  if (path.empty() && flags.positional().size() == 1) {
    path = flags.positional().front();
  }
  if (path.empty()) {
    std::fprintf(stderr, "missing --trace=PATH\n%s", kUsage);
    return 2;
  }

  const auto text = obs::ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 2;
  }
  const auto events = obs::ParseCsvTrace(text.value());
  if (!events.ok()) {
    std::fprintf(stderr, "corrupt trace: %s\n",
                 events.status().ToString().c_str());
    return 2;
  }

  if (flags.GetBool("spans", false)) {
#if HAECHI_TRACE_ENABLED
    obs::SpanAssemblyStats stats;
    const std::vector<obs::IoSpan> spans =
        obs::AssembleSpans(events.value(), &stats);
    obs::SpanProfile profile;
    profile.AddAll(spans);
    if (!flags.GetBool("quiet", false)) {
      std::printf("%s", profile.Table().c_str());
    }
    std::printf(
        "spans %llu assembled, %llu never issued, %llu never completed, "
        "%llu orphan events\n",
        static_cast<unsigned long long>(stats.spans),
        static_cast<unsigned long long>(stats.dropped_unissued),
        static_cast<unsigned long long>(stats.dropped_uncompleted),
        static_cast<unsigned long long>(stats.orphan_events));
    if (stats.spans == 0) {
      // Detail events that complete no span mean the engine rings wrapped
      // and lost part of every I/O they hold.
      const bool has_detail = stats.dropped_unissued +
                                  stats.dropped_uncompleted +
                                  stats.orphan_events >
                              0;
      std::fprintf(stderr, "%s",
                   has_detail
                       ? "no spans assembled: the trace holds per-I/O detail "
                         "events, but the engine rings wrapped and dropped "
                         "part of every I/O (rerun with a larger "
                         "--trace-ring)\n"
                       : "no spans assembled: the trace has no per-I/O "
                         "detail events (rerun with --trace-detail)\n");
      return 2;
    }
    return 0;
#else
    std::fprintf(stderr,
                 "this binary was built with HAECHI_TRACE=OFF; span "
                 "assembly is compiled out\n");
    return 2;
#endif
  }

  obs::AuditOptions options;
  options.guarantee_fraction =
      flags.GetDouble("guarantee-fraction", options.guarantee_fraction);
  options.allow_truncated = flags.GetBool("allow-truncated", false);
  const obs::AuditReport report = obs::AuditTrace(events.value(), options);

  if (flags.GetBool("quiet", false)) {
    std::printf("%s: %zu events, %d checks, %zu violations\n",
                report.ok() ? "PASS" : "FAIL", events.value().size(),
                report.checks_run, report.violations.size());
  } else {
    std::printf("%s", report.Summary().c_str());
  }
  if (report.ok()) return 0;
  const int k = obs::FirstFailedCheck(report);
  return k > 0 ? kExitBase + k : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
