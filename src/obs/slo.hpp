// Online QoS conformance watchdog: streaming SLO evaluation over the
// flight-recorder event stream.
//
// The offline auditor (obs/audit.hpp) replays an exported trace after the
// run; the watchdog consumes the *same* event stream while the run is in
// flight — installed as the Recorder's tap, it sees every event the moment
// it is emitted and settles each QoS period's verdicts at the period-end
// boundary, when the monitor has already published that period's
// calibration reports. Rules (DESIGN.md §10):
//
//   W1 reservation shortfall   completed < f * min(R, demand) for an
//                              admitted, demanding, alive client in a
//                              fully-measured reporting period — the
//                              shared guarantee judge (obs/identities.hpp)
//                              the auditor's A9 also runs, so online and
//                              offline verdicts agree on the same trace.
//   W2 limit overshoot         a limited client completed more than its
//                              admitted limit in one period.
//   W3 pool conservation       dispatch identity (A2), pool monotonicity
//                              between monitor writes (A3), the conversion
//                              time budget (A4), and a live cross-check of
//                              the monitor's own granted ledger against the
//                              stream-derived grant total — the shared
//                              pool ledger the auditor also runs, on every
//                              data node's pool.
//   W4 conversion stall        every conversion this period wrote
//                              xi_global = 0 while clients surrendered at
//                              least one FAA batch of reservation tokens to
//                              decay and some engine found the pool empty.
//   W5 capacity oscillation    Algorithm 1's estimate alternated direction
//                              for kOscillationFlips consecutive periods
//                              with relative amplitude above the threshold.
//   W6 FAA starvation          an engine's FAA retry backoff saturated at
//                              faa_retry_backoff_max within one period.
//   W7 borrow storm            the cluster coordinator issued at least
//                              kBorrowStormRequests cross-server borrow
//                              requests within one period — a node is
//                              chronically dry and thrashing against its
//                              peers instead of rebalancing reservations.
//   W8 monitor outage          the monitor crashed (kMonitorCrash); one
//                              warning per crash, and W1/W2 are suppressed
//                              for every period the outage window (padded
//                              two periods past the recovery, like crash
//                              windows) touches — the monitor was not
//                              provisioning, so no guarantee was promised.
//   W9 degraded service        a client fell back to reservation-only
//                              degraded pacing (kDegradedEnter) after its
//                              monitor lease went silent.
//
// Cluster traces (harness kClusterConfig): W3 covers every node (the
// shared ledger is keyed by monitor node), but the watchdog's own
// telemetry follows node 0 plus the cluster control plane — other nodes'
// monitor events and engines bound to them feed no W4-W9 rule — and W1/W2
// are left to the offline auditor, which judges a period only once every
// node has reported it.
//
// Injected faults annotate instead of false-alarming: fabric fault and
// client-crash events downgrade W4/W6 to info severity with a cause naming
// the fault, and W1 applies exactly the auditor's crash exclusions.
//
// Determinism: verdicts are a pure function of the event stream, and the
// live tap sees the same per-actor streams an exported trace carries — so
// same seed => byte-identical alert JSONL, and ReplayTrace() (the same
// OnEvent code path fed from a parsed export) reproduces the online alert
// set offline.
//
// Cost: nothing when HAECHI_WATCHDOG=OFF (no tap is installed and the
// harness wiring compiles out — the HAECHI_TRACE elision discipline);
// when on but not requested, no watchdog exists and Recorder::Emit pays
// only its existing tap-null check.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/identities.hpp"
#include "obs/trace.hpp"

// The watchdog rides the trace stream: compiling out tracing starves it,
// so the default follows HAECHI_TRACE_ENABLED. CMake's HAECHI_WATCHDOG
// option pins it explicitly (OFF forces 0 even with tracing on).
#ifndef HAECHI_WATCHDOG_ENABLED
#define HAECHI_WATCHDOG_ENABLED HAECHI_TRACE_ENABLED
#endif

namespace haechi::obs {

struct WatchdogOptions {
  /// W1 bar: completed >= f * min(reservation, demand) per measured
  /// reporting period. Matches AuditOptions::guarantee_fraction so the
  /// agreement test can run both at the same bar.
  double guarantee_fraction = 0.95;
};

/// W5 trigger: this many consecutive sign-alternating estimate deltas...
inline constexpr int kOscillationFlips = 4;
/// ...each at least this fraction of the previous estimate. Algorithm 1's
/// eta probe (~3%) must stay below it or steady-state Grow/Hold cycling
/// would alarm.
inline constexpr double kOscillationAmplitude = 0.05;
/// W7 trigger: cross-server borrow requests in one period. It tolerates a
/// burst while the adaptive quota ramps (a request per borrow tick for a
/// chunk of the period) but flags a node that stays dry through a whole
/// period's worth of ticks.
inline constexpr std::int64_t kBorrowStormRequests = 12;

/// One period's summary for the live status line (`--status-interval=N`).
struct PeriodStatus {
  std::uint32_t period = 0;
  std::int64_t capacity = 0;
  std::int64_t end_pool = 0;
  std::int64_t completed = 0;
  /// (client, attainment %) of min(R, demand), demanding clients only.
  std::vector<std::pair<std::uint32_t, int>> attainment;
  /// (shard, last sampled pool word) — sharded threaded runtime only
  /// (kShardSample events); empty on sim and single-shard traces.
  std::vector<std::pair<std::uint32_t, std::int64_t>> shard_pools;
  /// Cluster borrow flow this period: tokens moved by coordinator grants
  /// and repaid by borrowers. Zero outside cluster traces.
  std::int64_t borrow_granted = 0;
  std::int64_t borrow_repaid = 0;
  std::size_t period_alerts = 0;  // alerts raised for this period
  std::size_t total_alerts = 0;   // run total so far
};

/// One fixed-width status line ("p 12 pool 480/5000 att C0:100% ..."),
/// deterministic so it can be pinned in tests.
[[nodiscard]] std::string FormatStatusLine(const PeriodStatus& status);

class SloWatchdog {
 public:
  explicit SloWatchdog(WatchdogOptions options = {});

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  /// Registers a sink (not owned). Every alert is fanned out to all sinks
  /// in registration order, after being appended to alerts().
  void AddSink(AlertSink* sink);

  /// Installs the live status callback, invoked after evaluating every
  /// `interval`-th period. The callback must not mutate simulation state.
  void SetStatusFn(std::function<void(const PeriodStatus&)> fn,
                   std::uint32_t interval);

  /// Feeds one event — the Recorder tap entry point, also used by
  /// ReplayTrace. Events must arrive in emission order per actor.
  void OnEvent(const TraceEvent& event);

  /// Live truncation notification (the harness wires this to
  /// Recorder::SetDropNotify): the ring wrapped, so any export of this run
  /// is incomplete. Raises one kTraceTruncation alert, shared one-shot
  /// with the replay-side seq-gap detection — a truncated run alerts once
  /// whether caught live or on replay.
  void NotifyTruncation(SimTime time);

  /// Ends the stream: flushes every sink, returning the first failure.
  /// Periods settle on their own end events, so no verdicts are pending
  /// here; the trailing open period is not judged (mirroring the auditor,
  /// which skips unclosed periods).
  Status Finish();

  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  /// Alerts at a given severity or above.
  [[nodiscard]] std::size_t CountAtLeast(AlertSeverity severity) const;
  [[nodiscard]] std::size_t periods_evaluated() const {
    return periods_evaluated_;
  }
  [[nodiscard]] int guarantee_checks() const { return guarantee_checks_; }

 private:
  /// The watchdog's own telemetry for node 0's open period; the ledger
  /// itself lives in the shared PoolLedger.
  struct PeriodState {
    std::uint32_t period = 0;
    std::int64_t decay_surrendered = 0;  // sum over engines, this period
    std::int64_t pool_empty_events = 0;
    std::int64_t borrow_requests = 0;  // W7: coordinator requests observed
    // Status-line telemetry: last witnessed per-shard pool words
    // (kShardSample) and the period's cluster borrow flow.
    std::map<std::uint32_t, std::int64_t> shard_pools;
    std::int64_t borrow_granted = 0;
    std::int64_t borrow_repaid = 0;
    int conversions = 0;
    std::int64_t max_converted_pool = 0;
    std::set<std::uint32_t> faa_exhausted;  // clients whose backoff pinned
    bool faulted = false;  // fabric/crash fault observed this period
  };

  /// Formats a shared checker's finding as a trace-truncation or W3 alert.
  void OnFinding(const Finding& finding);
  void Raise(Alert alert);
  /// Settles every W-rule for the period that just closed.
  void EvaluatePeriod(const AuditPeriod& row, const TraceEvent& end_event);
  [[nodiscard]] std::string FaultCause(const char* healthy_cause) const;
  /// Info while faults explain the distress (this period or earlier),
  /// warning otherwise.
  [[nodiscard]] AlertSeverity DistressSeverity() const {
    return cur_.faulted || run_faulted_ ? AlertSeverity::kInfo
                                        : AlertSeverity::kWarning;
  }

  WatchdogOptions options_;
  std::vector<AlertSink*> sinks_;
  std::vector<Alert> alerts_;
  std::function<void(const PeriodStatus&)> status_fn_;
  std::uint32_t status_interval_ = 0;

  // The identity checkers the auditor shares (obs/identities.hpp).
  const FindingSink sink_ = [this](const Finding& f) { OnFinding(f); };
  StreamCheck stream_;
  RunFacts facts_;
  PoolLedger ledger_{/*retain_rows=*/false};

  bool run_faulted_ = false;
  std::int64_t monitor_crashes_ = 0;
  std::map<std::uint32_t, std::int64_t> lease_expiries_;  // fuels kLeaseChurn

  PeriodState cur_;
  bool period_open_ = false;

  // W5 state: Algorithm 1 estimate trajectory.
  std::int64_t last_estimate_ = -1;
  int last_delta_sign_ = 0;
  int flips_ = 0;

  // One-shot latch shared by the seq-gap finding and NotifyTruncation.
  bool truncation_alerted_ = false;

  std::size_t periods_evaluated_ = 0;
  int guarantee_checks_ = 0;
};

/// Replays a complete exported stream through a fresh watchdog — the same
/// OnEvent path the live tap drives — and returns the alerts. This is how
/// the online/offline agreement test pins the two witnesses together.
[[nodiscard]] std::vector<Alert> ReplayTrace(
    const std::vector<TraceEvent>& events, const WatchdogOptions& options = {});

}  // namespace haechi::obs
