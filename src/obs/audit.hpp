// Trace-replay audit: re-derives the PeriodLedger conservation identities
// and the reservation-guarantee invariant purely from an exported trace.
//
// The audit never looks at live simulator state — its only input is the
// event stream (usually parsed back from a CSV export), so it is an
// independent witness: a bug that corrupts both the token accounting and
// the stats it is summarised into still has to forge a *consistent* event
// stream to slip past it. Checks (DESIGN.md §9.3):
//
//   A1 stream integrity   per-actor seqs dense from 0, times non-decreasing
//   A2 dispatch identity  initial_pool == max(capacity - dispatched, 0)
//   A3 pool monotonicity  the pool word only moves down between monitor
//                         writes (clients can only FAA-subtract), and the
//                         monitor's own granted claim at period end equals
//                         the grant total its pool observations derive
//   A4 conversion bound   every converted pool value respects the paper's
//                         time budget C*(T-t)/T (replayed in integer math)
//   A5 FAA conservation   pool decrease == B * (applied fetches); exact per
//                         period on fault-free traces, bounded by
//                         B*(done+discard) <= granted <= B*(posted+dups)
//                         when transport faults can lose completions (the
//                         lower bound leaves out fetches a monitor outage
//                         orphaned)
//   A6 decay bound        tokens a client surrenders to decay never exceed
//                         the reservation it was granted
//   A7 report sanity      report seqs strictly increase and completed
//                         counts are monotone within a period, per engine
//                         incarnation (a restart resets both)
//   A8 reclamation        a lease expiry reclaims exactly the residual of
//                         some report the client wrote this period (or the
//                         full reservation if it never reported)
//   A9 reservation        every admitted, demanding, alive client completes
//      guarantee          at least `guarantee_fraction * min(R, demand)`
//                         in every fully-measured period (monitor-outage
//                         windows, padded two periods past the recovery,
//                         are excluded like client crash windows)
//   A11 checkpoint        every monitor recovery that claims a checkpoint
//       consistency       restored (a > 0 on kMonitorRecover) follows a
//                         kMonitorCrash and names an epoch/reservation-sum
//                         pair some kMonitorCheckpoint on the same node
//                         actually captured
//
// Cluster traces (a harness kClusterConfig row is present) carry one
// monitor stream per data node; A2..A8 replay per node, A9 sums each
// client's per-node calibration reports into its cluster-wide completion,
// and three cluster-only identities join the list (DESIGN.md §12):
//
//   C1 split conservation  after every coordinator rebalance the client's
//                          per-node reservation splits sum exactly to its
//                          cluster-wide R_i, and each tenant's member
//                          reservations stay within its envelope R_t
//   C2 borrow conservation for every (lender, borrower) pair repaid never
//                          exceeds granted, and each node's pool-word
//                          borrow flows (kPoolBorrowOut/In) match the
//                          coordinator ledger's grants + repayments
//   C3 node commitment     every reservation mutation leaves each node
//                          within its admission envelope: sum_i R_i,d <=
//                          aggregate_d and R_i,d <= local_d
//   C4 migration           at every membership/failover event (kNodeJoin,
//      sum-neutrality      kNodeLeave, kCoordFailover) each live client's
//                          per-node splits still sum to its cluster-wide
//                          reservation — joins, leaves and promotions move
//                          reservation, never mint or destroy it
//
// A1..A4 and A9 are the shared identity checkers of obs/identities.hpp,
// which the live watchdog (obs/slo.hpp) runs too; the audit formats their
// findings. A failed check is a Violation; ok() == violations.empty().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/identities.hpp"
#include "obs/trace.hpp"

namespace haechi::obs {

struct AuditOptions {
  /// Fraction of min(reservation, demand) a client must complete per
  /// measured period for A9. The paper's guarantee is ~1.0 minus reporting
  /// lag; chaos runs with lossy fabrics audit against a lower bar.
  double guarantee_fraction = 0.95;
  /// Accept traces whose rings wrapped (A1 gaps). Count-based checks
  /// (A5..A9) are skipped for actors with truncated streams.
  bool allow_truncated = false;
};

struct AuditViolation {
  std::string check;   // "A3", "A5", ...
  std::string detail;  // human-readable, with period/client/values
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  std::vector<AuditPeriod> periods;
  /// True when the trace holds no fabric fault or client crash events, so
  /// the strict per-period form of A5 applies.
  bool clean = true;
  /// True when the trace carries a harness kClusterConfig row; C1..C3 ran
  /// and the per-period ledger is per (node, period).
  bool cluster = false;
  int checks_run = 0;
  int guarantee_checks = 0;  // (client, period) pairs A9 evaluated
  int control_checks = 0;    // (node, period) pairs A10 evaluated

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Multi-line human-readable summary (per-period ledger + verdict).
  [[nodiscard]] std::string Summary() const;
};

/// Runs every check against the event stream. Order of `events` does not
/// matter; the audit re-sorts per actor by sequence number.
[[nodiscard]] AuditReport AuditTrace(const std::vector<TraceEvent>& events,
                                     const AuditOptions& options = {});

/// k of the first violation's check "Ak" (k <= 10) — or 10+k for a cluster
/// check "Ck" (k <= 3) — taking the lowest across violations, or 0 when
/// the report is clean. The survivability identities map into their own
/// band: A11 -> 21 and C4 -> 24. haechi_audit exits 10+result, so scripts
/// see 10+k for core identity Ak, 20+k for cluster identity Ck, and 30+k
/// for survivability identity k (31 = A11, 34 = C4) — three disjoint
/// ranges (see the static_asserts in haechi_audit.cpp).
[[nodiscard]] int FirstFailedCheck(const AuditReport& report);

}  // namespace haechi::obs
