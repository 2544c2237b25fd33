#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

namespace haechi::obs {

std::string FormatStatusLine(const PeriodStatus& status) {
  std::string line =
      Fmt("period %4u | pool %lld/%lld | done %lld | att", status.period,
          static_cast<long long>(status.end_pool),
          static_cast<long long>(status.capacity),
          static_cast<long long>(status.completed));
  if (status.attainment.empty()) line += " -";
  for (const auto& [client, pct] : status.attainment) {
    line += Fmt(" C%u:%d%%", client, pct);
  }
  // Sharded / cluster segments appear only when the trace carries them, so
  // single-pool single-node lines stay byte-identical to the PR 3 format.
  if (!status.shard_pools.empty()) {
    line += " | shards";
    for (const auto& [shard, pool] : status.shard_pools) {
      line += Fmt(" s%u:%lld", shard, static_cast<long long>(pool));
    }
  }
  if (status.borrow_granted != 0 || status.borrow_repaid != 0) {
    line += Fmt(" | borrow +%lld/-%lld",
                static_cast<long long>(status.borrow_granted),
                static_cast<long long>(status.borrow_repaid));
  }
  line += Fmt(" | alerts +%zu/%zu", status.period_alerts,
              status.total_alerts);
  return line;
}

SloWatchdog::SloWatchdog(WatchdogOptions options) : options_(options) {}

void SloWatchdog::AddSink(AlertSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void SloWatchdog::SetStatusFn(std::function<void(const PeriodStatus&)> fn,
                              std::uint32_t interval) {
  status_fn_ = std::move(fn);
  status_interval_ = interval;
}

void SloWatchdog::Raise(Alert alert) {
  alerts_.push_back(alert);
  for (AlertSink* sink : sinks_) sink->OnAlert(alerts_.back());
}

std::size_t SloWatchdog::CountAtLeast(AlertSeverity severity) const {
  return static_cast<std::size_t>(
      std::count_if(alerts_.begin(), alerts_.end(), [&](const Alert& a) {
        return a.severity >= severity;
      }));
}

std::string SloWatchdog::FaultCause(const char* healthy_cause) const {
  if (cur_.faulted) return Fmt("%s (faults injected this period)",
                               healthy_cause);
  if (run_faulted_) return Fmt("%s (faults injected earlier this run)",
                               healthy_cause);
  return healthy_cause;
}

void SloWatchdog::OnFinding(const Finding& f) {
  const TraceEvent& e = *f.event;
  if (std::string_view(f.check) == "A1") {
    // A1: only lost events alert (time order is the auditor's job), once.
    if (!f.lost_events || truncation_alerted_) return;
    truncation_alerted_ = true;
    Raise({AlertKind::kTraceTruncation, AlertSeverity::kWarning, e.time,
           e.period, -1, f.expected, f.observed,
           "per-actor seq gap: the recorder ring wrapped and events were "
           "lost before export"});
    return;
  }
  // W3 names the data node only off node 0, so single-node alerts keep
  // their original wording.
  Raise({AlertKind::kPoolConservation, AlertSeverity::kCritical, e.time,
         f.period, -1, f.expected, f.observed,
         e.actor == 0 ? f.what : Fmt("%s (node %u)", f.what.c_str(), e.actor)});
}

void SloWatchdog::NotifyTruncation(SimTime time) {
  if (truncation_alerted_) return;
  truncation_alerted_ = true;
  Raise({AlertKind::kTraceTruncation, AlertSeverity::kWarning, time,
         cur_.period, -1, 0, 0,
         "recorder ring wrapped: oldest events overwritten, any export of "
         "this run is truncated"});
}

void SloWatchdog::OnEvent(const TraceEvent& e) {
  stream_.Observe(e, sink_);
  // The shared checkers see every harness and monitor event (W3 on every
  // data node); the watchdog's own telemetry follows node 0's monitor and
  // the engines bound to it.
  const AuditPeriod* closed = nullptr;
  if (e.actor_kind == ActorKind::kMonitor) {
    facts_.Observe(e);
    closed = ledger_.Observe(e, facts_, sink_);
    if (e.actor != 0) return;
  } else if (e.actor_kind == ActorKind::kHarness) {
    facts_.Observe(e);
  } else if (e.actor_kind == ActorKind::kEngine && !facts_.bindings.empty() &&
             facts_.EngineNode(e.actor) != 0) {
    return;
  }
  switch (e.type) {
    // --- monitor: period boundaries and the token pool -------------------
    case EventType::kMonitorPeriodStart: {
      // Fault context persists across the boundary for annotation: a fault
      // window rarely aligns with period edges.
      const bool was_faulted = cur_.faulted && period_open_;
      cur_ = PeriodState{};
      cur_.period = e.period;
      cur_.faulted = was_faulted;
      period_open_ = true;
      break;
    }
    case EventType::kShardSample:
      // Per-shard occupancy for the status line; the summed kPoolSample in
      // the same check tick drives the conservation math.
      if (period_open_) {
        cur_.shard_pools[static_cast<std::uint32_t>(e.a)] = e.b;
      }
      break;
    case EventType::kBorrowRequest:
      if (period_open_) ++cur_.borrow_requests;
      break;
    case EventType::kBorrowGrant:
      if (period_open_) cur_.borrow_granted = SatAdd(cur_.borrow_granted, e.b);
      break;
    case EventType::kBorrowRepay:
      if (period_open_) cur_.borrow_repaid = SatAdd(cur_.borrow_repaid, e.b);
      break;
    case EventType::kTokenConvert:
      if (!period_open_) break;
      ++cur_.conversions;
      cur_.max_converted_pool = std::max(cur_.max_converted_pool, e.b);
      break;
    case EventType::kCapacityEstimate: {
      // W5: Algorithm 1 oscillation — consecutive significant
      // sign-alternating estimate moves.
      const std::int64_t estimate = e.b;
      if (last_estimate_ >= 0) {
        const std::int64_t delta = SatSub(estimate, last_estimate_);
        const int sign = delta > 0 ? 1 : (delta < 0 ? -1 : 0);
        const bool significant =
            std::fabs(static_cast<double>(delta)) >=
            kOscillationAmplitude *
                static_cast<double>(std::max<std::int64_t>(last_estimate_, 1));
        if (sign != 0 && significant && sign == -last_delta_sign_) {
          ++flips_;
        } else {
          flips_ = sign != 0 && significant ? 1 : 0;
        }
        if (sign != 0) last_delta_sign_ = sign;
        if (flips_ >= kOscillationFlips) {
          Raise({AlertKind::kCapacityOscillation, AlertSeverity::kWarning,
                 e.time, e.period, -1, last_estimate_, estimate,
                 Fmt("capacity estimate alternated direction %d periods "
                     "running (Algorithm 1 hunting)",
                     flips_)});
          flips_ = 0;
        }
      }
      last_estimate_ = estimate;
      break;
    }
    case EventType::kMonitorPeriodEnd:
      if (closed == nullptr) break;
      EvaluatePeriod(*closed, e);
      period_open_ = false;
      break;

    // --- monitor: client membership --------------------------------------
    case EventType::kLeaseExpire: {
      const std::int64_t expiries =
          ++lease_expiries_[static_cast<std::uint32_t>(e.a)];
      Raise({AlertKind::kLeaseChurn, DistressSeverity(), e.time, e.period,
             e.a, 0, expiries,
             FaultCause("report lease expired; client presumed dead")});
      break;
    }

    // --- monitor survivability (DESIGN.md §15) ----------------------------
    case EventType::kMonitorCrash:
      // The crashed period never sees its end event; the next
      // kMonitorPeriodStart (post-recovery) simply replaces cur_.
      Raise({AlertKind::kMonitorOutage, AlertSeverity::kWarning, e.time,
             e.period, -1, 0, ++monitor_crashes_,
             "monitor crashed: provisioning down, clients fall back to "
             "reservation-only degraded pacing"});
      break;
    case EventType::kDegradedEnter:
      Raise({AlertKind::kDegradedService,
             run_faulted_ ? AlertSeverity::kInfo : AlertSeverity::kWarning,
             e.time, e.period, e.actor, e.a, 0,
             FaultCause("monitor lease silent past the grace window; "
                        "client re-arms its last provisioned reservation "
                        "without free-token fetches")});
      break;

    // --- controller: recovery claims become typed alerts, so live runs and
    // offline ReplayTrace produce byte-identical alert streams.
    case EventType::kControlRecovered:
      Raise({AlertKind::kRecovered, AlertSeverity::kInfo, e.time, e.period,
             e.b, e.a, e.c,
             "controller: violated rule stayed quiet through its window"});
      break;

    // --- engine: token-path distress signals ------------------------------
    case EventType::kTokenDecay:
      if (period_open_ && e.period == cur_.period) {
        cur_.decay_surrendered = SatAdd(cur_.decay_surrendered, e.a);
      }
      break;
    case EventType::kPoolEmpty:
      if (period_open_ && e.period == cur_.period) ++cur_.pool_empty_events;
      break;
    case EventType::kFaaExhausted:
      if (period_open_ && e.period == cur_.period) {
        cur_.faa_exhausted.insert(e.actor);
      }
      break;

    default:
      break;
  }
  // Injected faults annotate instead of false-alarming; membership churn
  // and coordinator promotion count too (throughput wobbles across the
  // transition are expected, not SLO breaks).
  if (IsFaultEvent(e.type)) {
    run_faulted_ = true;
    cur_.faulted = true;
  }
}

void SloWatchdog::EvaluatePeriod(const AuditPeriod& row,
                                 const TraceEvent& end_event) {
  const PeriodState& p = cur_;
  ++periods_evaluated_;
  const std::size_t alerts_before = alerts_.size();

  // W1/W2 need cluster-wide completions per client, which a period end on
  // node 0 cannot wait for; on cluster traces the reservation and limit
  // verdicts are left to the offline auditor (A9).
  if (!facts_.cluster) {
    guarantee_checks_ += JudgeGuarantee(
        facts_, ledger_, row, options_.guarantee_fraction,
        [&](const GuaranteeCheck& g) {
          if (g.completed < g.floor) {
            Raise({AlertKind::kReservationShortfall, AlertSeverity::kCritical,
                   end_event.time, row.period, g.client, g.floor, g.completed,
                   FaultCause("client under-served while demanding and "
                              "alive")});
          }
          const std::int64_t limit = g.facts->LimitAt();
          if (limit > 0 && g.completed > limit) {
            Raise({AlertKind::kLimitOvershoot, AlertSeverity::kCritical,
                   end_event.time, row.period, g.client, limit, g.completed,
                   "completed above the admitted limit this period"});
          }
        });
  }

  // W4: every conversion pinned xi_global at zero while at least a full
  // FAA batch of reservation tokens sat idle (surrendered to decay) and
  // some engine found the pool empty — recycling should have minted.
  const std::int64_t idle_floor =
      std::max<std::int64_t>(facts_.token_batch, 1);
  if (ledger_.Reporting(row.period) && p.conversions > 0 &&
      p.max_converted_pool == 0 && p.decay_surrendered >= idle_floor &&
      p.pool_empty_events > 0) {
    Raise({AlertKind::kConversionStall, DistressSeverity(), end_event.time,
           p.period, -1, p.decay_surrendered, 0,
           FaultCause("token conversion stuck at zero with idle "
                      "reservations and starved engines")});
  }

  // W7: borrow storm — the coordinator spent the period begging peers for
  // tokens, meaning a node is chronically dry (its reservations should
  // move instead, or the cluster is over-committed).
  if (facts_.cluster && p.borrow_requests >= kBorrowStormRequests) {
    Raise({AlertKind::kBorrowStorm, DistressSeverity(), end_event.time,
           p.period, -1, kBorrowStormRequests, p.borrow_requests,
           FaultCause("cross-server borrow requests flooded the period")});
  }

  // W6: FAA backoff saturation. The set is ordered, so alert order is
  // deterministic.
  for (const std::uint32_t client : p.faa_exhausted) {
    Raise({AlertKind::kFaaStarvation, DistressSeverity(), end_event.time,
           p.period, client, static_cast<std::int64_t>(facts_.token_batch), 0,
           FaultCause("FAA retry backoff saturated at its maximum")});
  }

  if (status_fn_ && status_interval_ > 0 &&
      periods_evaluated_ % status_interval_ == 0) {
    PeriodStatus status;
    status.period = p.period;
    status.capacity = row.capacity;
    status.end_pool = row.end_pool;
    status.completed = row.completed;
    for (const auto& [client, info] : facts_.clients) {
      if (info.spec_demand <= 0) continue;
      const std::int64_t reservation =
          facts_.ReservationFor(info, row.start_time);
      if (reservation <= 0 || info.DepartedBy(row.start_time)) continue;
      const std::int64_t target =
          std::max<std::int64_t>(std::min(reservation, info.spec_demand), 1);
      const std::int64_t completed = ledger_.Completed(row.period, client);
      status.attainment.emplace_back(
          client, static_cast<int>(SatMul(completed, 100) / target));
    }
    for (const auto& [shard, pool] : p.shard_pools) {
      status.shard_pools.emplace_back(shard, pool);
    }
    status.borrow_granted = p.borrow_granted;
    status.borrow_repaid = p.borrow_repaid;
    status.period_alerts = alerts_.size() - alerts_before;
    status.total_alerts = alerts_.size();
    status_fn_(status);
  }
  // A live watchdog keeps calibration facts only for periods still open.
  ledger_.ForgetBefore(row.period);
}

Status SloWatchdog::Finish() {
  Status first = Status::Ok();
  for (AlertSink* sink : sinks_) {
    Status flushed = sink->Flush();
    if (first.ok() && !flushed.ok()) first = std::move(flushed);
  }
  return first;
}

std::vector<Alert> ReplayTrace(const std::vector<TraceEvent>& events,
                               const WatchdogOptions& options) {
  SloWatchdog watchdog(options);
  for (const TraceEvent& event : events) watchdog.OnEvent(event);
  (void)watchdog.Finish();  // no file-backed sinks here
  return watchdog.alerts();
}

}  // namespace haechi::obs
