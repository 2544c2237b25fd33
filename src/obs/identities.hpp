// The shared identity checkers: one streaming state machine per QoS
// invariant that both the offline audit (obs/audit.hpp) and the live
// watchdog (obs/slo.hpp) check. Each witness feeds events in and only
// formats the findings — the audit as AuditViolations, the watchdog as
// Alerts — so the two cannot drift apart (DESIGN.md §9.3, §10):
//
//   StreamCheck     A1 / trace truncation: per-actor seqs dense from 0,
//                   times non-decreasing.
//   RunFacts        the harness config and measurement window, the client
//                   roster, and the client-crash and monitor-outage windows
//                   with the one rule that pads a window past its close.
//   PoolLedger      A2, A3 (with the monitor's own granted claim) and A4,
//                   keyed by monitor node; yields the AuditPeriod rows.
//   JudgeGuarantee  A9 / W1: completed >= f * min(R, demand).
//
// Every sum and bound over event payloads saturates, so a hostile trace
// (INT64_MIN/INT64_MAX fields) yields findings, never signed overflow.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace haechi::obs {

using I64Limits = std::numeric_limits<std::int64_t>;

[[nodiscard]] inline std::int64_t SatAdd(std::int64_t x, std::int64_t y) {
  std::int64_t out = 0;
  if (!__builtin_add_overflow(x, y, &out)) return out;
  return y > 0 ? I64Limits::max() : I64Limits::min();
}
[[nodiscard]] inline std::int64_t SatSub(std::int64_t x, std::int64_t y) {
  std::int64_t out = 0;
  if (!__builtin_sub_overflow(x, y, &out)) return out;
  return y < 0 ? I64Limits::max() : I64Limits::min();
}
[[nodiscard]] inline std::int64_t SatMul(std::int64_t x, std::int64_t y) {
  std::int64_t out = 0;
  if (!__builtin_mul_overflow(x, y, &out)) return out;
  return (x < 0) != (y < 0) ? I64Limits::min() : I64Limits::max();
}

/// printf into a std::string (findings, violations and alert causes).
[[nodiscard]] std::string Fmt(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Events that mark a run as faulted: fabric and node faults, scripted
/// client crashes, monitor crash/recovery and cluster membership churn. The
/// audit demotes A5 to its band form on them; the watchdog downgrades its
/// distress alerts to info.
[[nodiscard]] bool IsFaultEvent(EventType type);

/// The ledger re-derived for one QoS period of one monitor, from events
/// alone. Cluster traces produce one row per (node, period).
struct AuditPeriod {
  std::uint32_t node = 0;  // monitor actor (data node); 0 on single-node
  std::uint32_t period = 0;
  SimTime start_time = 0;
  std::int64_t capacity = 0;
  std::int64_t dispatched = 0;    // sum of reservations pushed
  std::int64_t initial_pool = 0;
  std::int64_t granted = 0;       // pool decrease attributed to FAAs
  std::int64_t minted = 0;        // net pool movement by conversions
  std::int64_t end_pool = 0;
  std::int64_t completed = 0;     // monitor's calibrated total
  std::int64_t faa_done = 0;      // successful fetches tagged this period
  bool closed = false;            // saw kMonitorPeriodEnd
  bool reporting = false;         // S2 fired / Algorithm 1 ran
  bool measured = false;          // fully inside the measurement window
};

/// One broken shared identity and the event that broke it.
struct Finding {
  const char* check = "";  // "A1".."A4"
  std::string what;        // the broken rule, in words
  const TraceEvent* event = nullptr;
  std::uint32_t period = 0;  // the ledger row's period (A1: the event's)
  std::int64_t expected = 0;
  std::int64_t observed = 0;
  bool lost_events = false;  // an A1 head or seq gap: the ring wrapped
};

using FindingSink = std::function<void(const Finding&)>;

/// A1 / trace truncation. Events must arrive in seq order per actor (the
/// live tap, a Merged() replay and the audit's per-actor sort all do).
class StreamCheck {
 public:
  void Observe(const TraceEvent& event, const FindingSink& sink);
  /// True once the actor's stream showed a head or seq gap.
  [[nodiscard]] bool Truncated(ActorKind kind, std::uint32_t actor) const {
    const auto it = cursors_.find(Key(kind, actor));
    return it != cursors_.end() && it->second.truncated;
  }

 private:
  struct Cursor {
    std::uint64_t next_seq = 0;
    SimTime last_time = 0;
    bool truncated = false;
  };
  static std::uint64_t Key(ActorKind kind, std::uint32_t actor) {
    return (std::uint64_t{static_cast<unsigned>(kind)} << 32) | actor;
  }
  std::unordered_map<std::uint64_t, Cursor> cursors_;
  // Consecutive events of one stream (the audit's order) skip the lookup.
  std::uint64_t last_key_ = ~std::uint64_t{0};
  Cursor* last_ = nullptr;
};

/// What the trace says about one client, across subsystems.
struct ClientFacts {
  std::int64_t spec_reservation = -1;
  std::int64_t spec_limit = 0;
  std::int64_t spec_demand = -1;
  // (time, reservation) of every admit, readmit and controller resize.
  std::vector<std::pair<SimTime, std::int64_t>> admits;
  std::int64_t admitted_limit = -1;  // limit of the newest admit
  std::vector<SimTime> departures;   // releases + lease expiries
  // Scripted crash windows [crash, restart); restart is kSimTimeMax while
  // the client is still down.
  std::vector<std::pair<SimTime, SimTime>> crash_windows;

  [[nodiscard]] std::int64_t ReservationAt(SimTime t) const;
  [[nodiscard]] bool DepartedBy(SimTime t) const;
  [[nodiscard]] std::int64_t LimitAt() const {
    return admitted_limit >= 0 ? admitted_limit : spec_limit;
  }
};

/// A monitor outage on one node. It opens at the node's last pool
/// observation before the crash, not the crash itself: grants landing
/// after that observation were never witnessed (the next check tick died
/// with the monitor, and the recovery boundary leaves the crashed period
/// unclosed), so the window must cover them too.
struct OutageWindow {
  std::uint32_t node = 0;
  std::uint32_t period = 0;  // the crashed period
  SimTime open = 0;
  SimTime close = kSimTimeMax;  // kSimTimeMax while the monitor is down
};

/// Cluster striping map entry, from a harness kEngineBinding row.
struct EngineBinding {
  std::uint32_t client = 0;
  std::uint32_t node = 0;
  std::uint32_t tenant = 0;
};

struct RunFacts {
  /// Feeds harness rows and monitor membership rows; ignores the rest.
  void Observe(const TraceEvent& event);

  /// End of the period starting at `start`; kSimTimeMax if the length is
  /// unknown.
  [[nodiscard]] SimTime PeriodEnd(SimTime start) const {
    return period_len > 0 ? SatAdd(start, period_len) : kSimTimeMax;
  }
  /// With harness rows, a period is measured only when kMeasureStart is at
  /// or before its start — a stream cannot treat "no marker yet" as
  /// measured — and it ends by kMeasureEnd (if seen). Without harness
  /// rows every period counts.
  [[nodiscard]] bool Measured(SimTime start) const;
  /// True when a window [open, close), padded two periods past its close
  /// for the re-sync handshake and demand ramp, touches the period.
  [[nodiscard]] bool Touches(SimTime open, SimTime close,
                             SimTime start) const;
  /// The reservation the guarantee holds a client to: its cluster-wide
  /// spec on cluster traces (per-node admits carry only its split), its
  /// newest admit or resize otherwise.
  [[nodiscard]] std::int64_t ReservationFor(const ClientFacts& client,
                                            SimTime start) const {
    return cluster ? client.spec_reservation : client.ReservationAt(start);
  }
  /// The data node an engine drains: its binding, else node 0.
  [[nodiscard]] std::uint32_t EngineNode(std::uint32_t engine) const {
    const auto b = bindings.find(engine);
    return b != bindings.end() ? b->second.node : 0u;
  }

  // period_len comes from kRunConfig, or is inferred from two consecutive
  // period starts when the trace has no harness rows.
  SimDuration period_len = 0;
  std::int64_t token_batch = 0;
  SimTime measure_start = -1;
  SimTime measure_end = -1;
  bool have_harness = false;
  bool cluster = false;
  std::map<std::uint32_t, EngineBinding> bindings;  // engine actor -> ...
  std::map<std::uint32_t, ClientFacts> clients;
  std::vector<OutageWindow> outages;
};

/// A2/A3/A4 over every monitor's pool word, keyed by monitor node, plus the
/// per-period calibration facts the guarantee judge reads.
class PoolLedger {
 public:
  /// `retain_rows` keeps every row (the audit's ledger); a live watchdog
  /// keeps only each node's newest.
  explicit PoolLedger(bool retain_rows) : retain_rows_(retain_rows) {}

  /// Feeds one monitor event; returns the row it closed (the first
  /// kMonitorPeriodEnd of the node's open period), else nullptr.
  const AuditPeriod* Observe(const TraceEvent& event, RunFacts& facts,
                             const FindingSink& sink);

  [[nodiscard]] std::vector<AuditPeriod>& rows() { return rows_; }
  /// A client's completions in a period, summed over every node's report.
  [[nodiscard]] std::int64_t Completed(std::uint32_t period,
                                       std::uint32_t client) const;
  /// True when some monitor's S2 fired or Algorithm 1 ran in the period.
  [[nodiscard]] bool Reporting(std::uint32_t period) const {
    return reporting_.contains(period);
  }
  /// Drops the calibration facts of periods before `period`.
  void ForgetBefore(std::uint32_t period) {
    completed_.erase(completed_.begin(), completed_.lower_bound(period));
    reporting_.erase(reporting_.begin(), reporting_.lower_bound(period));
  }
  /// Latest pool observation on any node.
  [[nodiscard]] SimTime last_observation() const { return last_observation_; }
  /// node -> (tokens lent out, tokens absorbed) by pool-word borrow moves.
  [[nodiscard]] std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>>
  BorrowFlows() const;
  [[nodiscard]] int checks() const { return checks_; }

 private:
  struct Node {
    std::size_t row = kNoRow;  // rows_ index of the node's newest row
    std::int64_t last_pool = 0;
    SimTime last_observation = -1;
    SimTime prev_start = -1;
    // Net cross-server borrow movement this period (absorbed - lent): the
    // monitor adds it to its conversion target so loans survive the
    // overwrite, and A4's budget extends by the same credit.
    std::int64_t borrow_credit = 0;
    std::int64_t lent = 0;
    std::int64_t absorbed = 0;
  };
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  void ObservePool(const TraceEvent& event, Node& node, std::int64_t value,
                   const FindingSink& sink);

  bool retain_rows_;
  std::map<std::uint32_t, Node> nodes_;
  std::vector<AuditPeriod> rows_;
  std::map<std::uint32_t, std::map<std::uint32_t, std::int64_t>> completed_;
  std::set<std::uint32_t> reporting_;
  SimTime last_observation_ = -1;
  int checks_ = 0;
};

/// One (client, period) pair the reservation guarantee covers.
struct GuaranteeCheck {
  std::uint32_t client = 0;
  const ClientFacts* facts = nullptr;
  std::int64_t reservation = 0;
  std::int64_t floor = 0;  // guarantee_fraction * min(reservation, demand)
  std::int64_t completed = 0;
};

/// A9 / W1 for one closed period: calls `judged` for every admitted,
/// demanding, alive client the guarantee covers and returns how many.
/// Nothing is judged unless the period is measured and reporting; a
/// monitor outage touching it excuses everyone, a crash window or a lease
/// departure excuses one client.
int JudgeGuarantee(const RunFacts& facts, const PoolLedger& ledger,
                   const AuditPeriod& period, double guarantee_fraction,
                   const std::function<void(const GuaranteeCheck&)>& judged);

}  // namespace haechi::obs
