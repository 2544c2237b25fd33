#include "obs/audit.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "obs/identities.hpp"

namespace haechi::obs {

namespace {

/// A monitor kLeaseExpire captured with the walk-local context A8 needs:
/// which node fired it and what that node's split for the client was.
struct LeaseExpiry {
  TraceEvent event;
  std::uint32_t node = 0;
  std::int64_t node_reservation = -1;  // -1: client unknown to the node
};

/// Per-(engine, period) tallies from the engine's event stream.
struct EnginePeriod {
  std::int64_t reservation = -1;  // pushed at kEnginePeriodStart
  std::int64_t decay_surrendered = 0;
  std::int64_t faa_done = 0;
  /// Tokens posted by done fetches that tagged their delta (c > 0 on
  /// kTokenFetchDone, which every engine now writes).
  std::int64_t tokens_done = 0;
  std::vector<std::int64_t> report_residuals;
};

}  // namespace

AuditReport AuditTrace(const std::vector<TraceEvent>& events,
                       const AuditOptions& options) {
  AuditReport report;
  const auto fail = [&](const char* check, std::string detail) {
    report.violations.push_back({check, std::move(detail)});
  };
  // The shared checkers' findings (obs/identities.hpp), as violations; A1
  // findings already name their stream and seqs.
  const FindingSink sink = [&](const Finding& f) {
    if (f.lost_events && options.allow_truncated) return;
    if (std::string_view(f.check) == "A1") return fail(f.check, f.what);
    fail(f.check, Fmt("node %u period %u: %s (expected %lld, observed %lld "
                      "at t=%lld)",
                      f.event->actor, f.period, f.what.c_str(),
                      static_cast<long long>(f.expected),
                      static_cast<long long>(f.observed),
                      static_cast<long long>(f.event->time)));
  };

  // ---- group into per-actor streams, sorted by sequence number ----------
  // Streams reference the caller's events; nothing is copied.
  using StreamKey = std::pair<unsigned, std::uint32_t>;
  std::map<StreamKey, std::vector<std::reference_wrapper<const TraceEvent>>>
      streams;
  for (const TraceEvent& e : events) {
    streams[{static_cast<unsigned>(e.actor_kind), e.actor}].push_back(e);
  }

  // ---- A1: stream integrity ---------------------------------------------
  StreamCheck stream_check;
  for (auto& [key, stream] : streams) {
    std::stable_sort(stream.begin(), stream.end(),
                     [](const TraceEvent& x, const TraceEvent& y) {
                       return x.seq < y.seq;
                     });
    ++report.checks_run;
    for (const TraceEvent& e : stream) stream_check.Observe(e, sink);
  }
  const auto truncated = [&](const StreamKey& key) {
    return stream_check.Truncated(static_cast<ActorKind>(key.first),
                                  key.second);
  };

  // ---- run configuration (harness events, with inference fallbacks) -----
  RunFacts facts;
  std::map<std::uint32_t, std::int64_t> tenant_res;     // tenant -> R_t
  // node -> (aggregate, local) admission capacities.
  std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> node_caps;
  for (const auto& [key, stream] : streams) {
    if (static_cast<ActorKind>(key.first) != ActorKind::kHarness) continue;
    for (const TraceEvent& e : stream) {
      facts.Observe(e);
      if (e.type == EventType::kTenantSpec) tenant_res[e.actor] = e.a;
      if (e.type == EventType::kNodeCapacity) {
        node_caps[static_cast<std::uint32_t>(e.a)] = {e.b, e.c};
      }
    }
  }
  report.cluster = facts.cluster;

  // ---- the monitor walks: A2 (dispatch), A3 (monotone), A4 (conversion) --
  // One walk per monitor actor: single-node traces carry exactly one
  // stream at actor 0, cluster traces one per data node. The shared pool
  // ledger keeps the per-node state and the calibration reports A9 reads.
  PoolLedger ledger(/*retain_rows=*/true);
  std::vector<LeaseExpiry> lease_expiries;
  for (const auto& [mkey, mstream] : streams) {
    if (static_cast<ActorKind>(mkey.first) != ActorKind::kMonitor) continue;
    const std::uint32_t node = mkey.second;
    // client -> this node's live reservation split, for A8 context.
    std::map<std::uint32_t, std::int64_t> live_res;
    // A11 state: checkpoints this node captured, and whether a crash is
    // open (a recovery must follow one).
    std::vector<std::pair<std::uint32_t, std::int64_t>> checkpoints;
    bool crash_open = false;
    for (const TraceEvent& e : mstream) {
      facts.Observe(e);
      (void)ledger.Observe(e, facts, sink);
      const auto client = static_cast<std::uint32_t>(e.a);
      switch (e.type) {
        case EventType::kAdmit:
        case EventType::kReadmit:
        case EventType::kReservationUpdate:
          live_res[client] = e.b;
          break;
        case EventType::kRelease:
          live_res.erase(client);
          break;
        case EventType::kLeaseExpire: {
          const auto lr = live_res.find(client);
          lease_expiries.push_back(
              {e, node, lr != live_res.end() ? lr->second : -1});
          live_res.erase(client);
          break;
        }
        case EventType::kMonitorCheckpoint:
          checkpoints.emplace_back(static_cast<std::uint32_t>(e.a), e.b);
          break;
        case EventType::kMonitorCrash:
          // The crashed period never closes; clients the crash orphaned
          // are reconciled by the recovery, not by lease expiry.
          crash_open = true;
          break;
        case EventType::kMonitorRecover: {
          ++report.checks_run;
          if (!crash_open) {
            fail("A11", Fmt("node %u: recovery at t=%lld without a "
                            "preceding monitor crash",
                            node, static_cast<long long>(e.time)));
          }
          crash_open = false;
          if (e.a > 0) {
            // The recovery claims it restored checkpoint epoch a with
            // reservation sum b; some checkpoint this node captured must
            // say exactly that.
            const auto epoch = static_cast<std::uint32_t>(e.a);
            const bool known =
                std::any_of(checkpoints.begin(), checkpoints.end(),
                            [&](const auto& cp) {
                              return cp.first == epoch && cp.second == e.b;
                            });
            ++report.checks_run;
            if (!known) {
              fail("A11",
                   Fmt("node %u: recovery restored checkpoint epoch %u "
                       "with reservation sum %lld, but no captured "
                       "checkpoint matches",
                       node, epoch, static_cast<long long>(e.b)));
            }
          }
          break;
        }
        default:
          break;
      }
    }
  }
  report.checks_run += ledger.checks();
  std::vector<AuditPeriod>& rows = ledger.rows();
  std::int64_t token_batch = facts.token_batch;

  // ---- engine walks: A6 (decay), A7 (report sanity) ----------------------
  // client -> period -> tallies.
  std::map<std::uint32_t, std::map<std::uint32_t, EnginePeriod>> engines;
  bool engine_truncated = false;
  // Every fetch result names the tokens its FAA posted (c); A5 sums them.
  // A result without one is malformed, never silently counted as B.
  const auto untagged = [&](std::uint32_t engine, const TraceEvent& e) {
    if (e.c > 0) return;
    fail("A5", Fmt("engine %u period %u: %s with c=%lld is an untagged "
                   "fetch (no posted-token count)",
                   engine, e.period, std::string(ToString(e.type)).c_str(),
                   static_cast<long long>(e.c)));
  };
  for (const auto& [key, stream] : streams) {
    if (static_cast<ActorKind>(key.first) != ActorKind::kEngine) continue;
    if (truncated(key)) {
      engine_truncated = true;
      continue;  // counts below would be wrong; A1 already flagged it
    }
    auto& periods = engines[key.second];
    std::int64_t last_report_seq = -1;
    std::int64_t last_completed = -1;
    std::uint32_t completed_period = 0;
    for (const TraceEvent& e : stream) {
      EnginePeriod& ep = periods[e.period];
      switch (e.type) {
        case EventType::kEnginePeriodStart:
          ep.reservation = e.a;
          break;
        case EventType::kDegradedPeriod:
          // A synthetic degraded boundary re-arms the engine's last
          // provisioned reservation under the same period number, so the
          // period's decay budget grows by the re-armed amount.
          ep.reservation =
              ep.reservation < 0 ? e.a : SatAdd(ep.reservation, e.a);
          break;
        case EventType::kTokenDecay:
          ep.decay_surrendered = SatAdd(ep.decay_surrendered, e.a);
          break;
        case EventType::kTokenFetch:
          if (token_batch == 0) token_batch = e.a;
          break;
        case EventType::kTokenFetchDone:
          ++ep.faa_done;
          ep.tokens_done = SatAdd(ep.tokens_done, e.c);
          untagged(key.second, e);
          break;
        case EventType::kTokenDiscard:
          untagged(key.second, e);
          break;
        case EventType::kReportWrite: {
          ep.report_residuals.push_back(e.a);
          ++report.checks_run;
          if (e.c <= last_report_seq) {
            fail("A7", Fmt("client %u: report seq %lld after %lld",
                           key.second, static_cast<long long>(e.c),
                           static_cast<long long>(last_report_seq)));
          }
          last_report_seq = e.c;
          if (e.period == completed_period && e.b < last_completed) {
            fail("A7", Fmt("client %u period %u: completed count fell "
                           "%lld -> %lld",
                           key.second, e.period,
                           static_cast<long long>(last_completed),
                           static_cast<long long>(e.b)));
          }
          completed_period = e.period;
          last_completed = e.b;
          break;
        }
        case EventType::kEngineStop:
          // A restarted client runs a fresh engine incarnation whose
          // report counters begin again at zero; A7's monotonicity is
          // per incarnation, so reset it at the stop boundary.
          last_report_seq = -1;
          last_completed = -1;
          break;
        default:
          break;
      }
    }
    for (const auto& [period, ep] : periods) {
      if (ep.reservation < 0) continue;  // period-start message lost
      ++report.checks_run;
      if (ep.decay_surrendered > ep.reservation) {
        fail("A6", Fmt("client %u period %u: surrendered %lld tokens to "
                       "decay, above the %lld reserved",
                       key.second, period,
                       static_cast<long long>(ep.decay_surrendered),
                       static_cast<long long>(ep.reservation)));
      }
    }
  }

  // ---- fault census: strict vs bounded mode for A5 -----------------------
  std::int64_t duplicated_ops = 0;
  for (const TraceEvent& e : events) {
    if (IsFaultEvent(e.type)) report.clean = false;
    if (e.type == EventType::kOpDuplicated) ++duplicated_ops;
  }

  // ---- A5: FAA conservation ---------------------------------------------
  bool monitor_truncated = false;
  bool cluster_truncated = false;
  for (const auto& [key, stream] : streams) {
    if (!truncated(key)) continue;
    const auto kind = static_cast<ActorKind>(key.first);
    if (kind == ActorKind::kMonitor) monitor_truncated = true;
    if (kind == ActorKind::kCluster) cluster_truncated = true;
  }
  if (token_batch > 0 && !monitor_truncated && !engine_truncated) {
    if (report.clean) {
      // Fault-free: every posted fetch completes in its own period, so the
      // pool decrease each monitor observed must equal the sum of the
      // tokens the fetches against *that node* posted, each fetch's own
      // tagged delta.
      for (AuditPeriod& p : rows) {
        std::int64_t expected = 0;
        for (const auto& [actor, periods] : engines) {
          if (facts.EngineNode(actor) != p.node) continue;
          const auto it = periods.find(p.period);
          if (it != periods.end()) {
            p.faa_done += it->second.faa_done;
            expected = SatAdd(expected, it->second.tokens_done);
          }
        }
        if (!p.closed) continue;
        ++report.checks_run;
        if (p.granted != expected) {
          fail("A5", Fmt("node %u period %u: pool decreased by %lld but "
                         "clients completed %lld fetches posting %lld "
                         "tokens",
                         p.node, p.period, static_cast<long long>(p.granted),
                         static_cast<long long>(p.faa_done),
                         static_cast<long long>(expected)));
        }
      }
    } else {
      // Faulted: a fetch whose completion was dropped (or whose client
      // died) may or may not have reached the pool word, and a duplicated
      // op applies twice — so conservation holds as a band, over the run.
      std::int64_t granted = 0;
      for (const AuditPeriod& p : rows) granted = SatAdd(granted, p.granted);
      std::int64_t done_before_close = 0;
      std::int64_t posted = 0;
      std::int64_t lower = 0;
      std::int64_t upper = 0;
      // A fetch that completed inside a monitor outage drained the pool
      // while nobody was watching: the crashed period never closes, and the
      // recovery boundary re-installs a fresh pool without attributing the
      // wreckage, so its tokens can never show up in `granted`. Exclude it
      // from the lower bound (upper stays an over-estimate either way). So
      // is a fetch against the crashed node that completed after the
      // outage opened but is tagged with the crashed period or earlier:
      // engines keep drawing from the discarded pool until they re-sync,
      // and under wall-clock stamps such a fetch can land after the
      // recovery event although its FAA drained the discarded pool.
      const auto orphaned = [&](std::uint32_t engine, const TraceEvent& e) {
        return std::any_of(
            facts.outages.begin(), facts.outages.end(),
            [&](const OutageWindow& w) {
              return e.time > w.open &&
                     (e.time < w.close || (e.period <= w.period &&
                                           facts.EngineNode(engine) == w.node));
            });
      };
      for (const auto& [key, stream] : streams) {
        if (static_cast<ActorKind>(key.first) != ActorKind::kEngine) continue;
        for (const TraceEvent& e : stream) {
          if (e.type == EventType::kTokenFetch) {
            ++posted;
            upper = SatAdd(upper, e.a > 0 ? e.a : token_batch);
          }
          if ((e.type == EventType::kTokenFetchDone ||
               e.type == EventType::kTokenDiscard) &&
              e.time <= ledger.last_observation() &&
              !orphaned(key.second, e)) {
            ++done_before_close;
            lower = SatAdd(lower, std::max<std::int64_t>(e.c, 0));
          }
        }
      }
      upper = SatAdd(upper, SatMul(token_batch, duplicated_ops));
      ++report.checks_run;
      if (granted < lower || granted > upper) {
        fail("A5", Fmt("run: pool decreased by %lld, outside the "
                       "conservation band [%lld, %lld] "
                       "(B=%lld, done=%lld, posted=%lld, dups=%lld)",
                       static_cast<long long>(granted),
                       static_cast<long long>(lower),
                       static_cast<long long>(upper),
                       static_cast<long long>(token_batch),
                       static_cast<long long>(done_before_close),
                       static_cast<long long>(posted),
                       static_cast<long long>(duplicated_ops)));
      }
    }
  }

  // ---- A8: lease reclamation --------------------------------------------
  if (!engine_truncated) {
    for (const LeaseExpiry& le : lease_expiries) {
      const TraceEvent& e = le.event;
      const auto client = static_cast<std::uint32_t>(e.a);
      ++report.checks_run;
      // The node's live split for the client (tracks reservation updates,
      // so it is exact on cluster traces); fall back to the admit history
      // for traces predating the split bookkeeping.
      const auto known = facts.clients.find(client);
      const std::int64_t reservation =
          le.node_reservation >= 0 ? le.node_reservation
          : known != facts.clients.end() ? known->second.ReservationAt(e.time)
                                         : -1;
      bool consistent = e.b == reservation;
      for (const auto& [actor, periods] : engines) {
        if (consistent) break;
        // Only reports written by the engine serving (client, node) can
        // justify the reclaimed residual.
        const auto b = facts.bindings.find(actor);
        const std::uint32_t eng_client =
            b != facts.bindings.end() ? b->second.client : actor;
        if (eng_client != client || facts.EngineNode(actor) != le.node) {
          continue;
        }
        const auto pe = periods.find(e.period);
        if (pe == periods.end()) continue;
        const auto& residuals = pe->second.report_residuals;
        consistent = std::find(residuals.begin(), residuals.end(), e.b) !=
                     residuals.end();
      }
      if (!consistent) {
        fail("A8", Fmt("node %u period %u: lease expiry reclaimed %lld "
                       "tokens from client %u, matching neither its "
                       "reservation (%lld) nor any report it wrote this "
                       "period",
                       le.node, e.period, static_cast<long long>(e.b),
                       client, static_cast<long long>(reservation)));
      }
    }
  }

  // ---- A9: reservation guarantee ----------------------------------------
  // Cluster traces: one ledger entry per (node, period), but the guarantee
  // is cluster-wide — judge each period number once, against the client's
  // *spec* reservation (per-node admits carry only its split).
  std::set<std::uint32_t> a9_judged;
  for (AuditPeriod& p : rows) {
    p.reporting = ledger.Reporting(p.period);
    if (!p.closed) continue;
    p.measured = facts.Measured(p.start_time);
    if (!p.measured || !p.reporting) continue;
    if (report.cluster && !a9_judged.insert(p.period).second) continue;
    const int judged = JudgeGuarantee(
        facts, ledger, p, options.guarantee_fraction,
        [&](const GuaranteeCheck& g) {
          if (g.completed >= g.floor) return;
          fail("A9", Fmt("period %u: client %u completed %lld tokens, below "
                         "%.2f * min(reservation %lld, demand %lld) = %lld",
                         p.period, g.client,
                         static_cast<long long>(g.completed),
                         options.guarantee_fraction,
                         static_cast<long long>(g.reservation),
                         static_cast<long long>(g.facts->spec_demand),
                         static_cast<long long>(g.floor)));
        });
    report.checks_run += judged;
    report.guarantee_checks += judged;
  }

  // ---- A10: controller resize neutrality ---------------------------------
  // Every applied controller resize stamps its signed reservation delta in
  // kControlAction.c; the controller plans shrink-and-park pairs, so per
  // (node, period) the deltas must sum to zero — reservations move between
  // clients, capacity is never minted or destroyed.
  for (const auto& [ckey, cstream] : streams) {
    if (static_cast<ActorKind>(ckey.first) != ActorKind::kController) {
      continue;
    }
    if (truncated(ckey)) continue;  // A1 already flagged it
    std::map<std::uint32_t, std::int64_t> resize_sum;
    for (const TraceEvent& e : cstream) {
      if (e.type != EventType::kControlAction) continue;
      if (e.a != 0) continue;  // 0 = control::ActionKind::kResize
      resize_sum[e.period] = SatAdd(resize_sum[e.period], e.c);
    }
    for (const auto& [period, sum] : resize_sum) {
      ++report.checks_run;
      ++report.control_checks;
      if (sum != 0) {
        fail("A10", Fmt("node %u period %u: controller resize deltas sum "
                        "to %lld, expected 0 (reservation moves must be "
                        "sum-neutral)",
                        ckey.second, period, static_cast<long long>(sum)));
      }
    }
  }

  // ---- C1..C3: cluster identities ---------------------------------------
  if (report.cluster && !monitor_truncated && !cluster_truncated) {
    // C1 (tenant nesting, static): member spec reservations fit the
    // tenant's envelope R_t. Membership comes from the engine bindings.
    std::map<std::uint32_t, std::uint32_t> tenant_of;  // client -> tenant
    for (const auto& [actor, b] : facts.bindings) {
      tenant_of[b.client] = b.tenant;
    }
    std::map<std::uint32_t, std::int64_t> tenant_sum;
    for (const auto& [client, tenant] : tenant_of) {
      const auto ci = facts.clients.find(client);
      if (ci != facts.clients.end() && ci->second.spec_reservation > 0) {
        tenant_sum[tenant] =
            SatAdd(tenant_sum[tenant], ci->second.spec_reservation);
      }
    }
    for (const auto& [tenant, sum] : tenant_sum) {
      const auto tr = tenant_res.find(tenant);
      if (tr == tenant_res.end()) continue;
      ++report.checks_run;
      if (sum > tr->second) {
        fail("C1", Fmt("tenant %u: member reservations sum to %lld, above "
                       "the tenant envelope R_t = %lld",
                       tenant, static_cast<long long>(sum),
                       static_cast<long long>(tr->second)));
      }
    }

    // Merged time-ordered replay for the split / borrow / commitment
    // identities. Ties break on (kind, actor, seq) so each monitor's
    // updates land before the coordinator event stamped at the same time.
    std::vector<const TraceEvent*> merged;
    merged.reserve(events.size());
    for (const auto& [key, stream] : streams) {
      for (const TraceEvent& e : stream) merged.push_back(&e);
    }
    std::sort(merged.begin(), merged.end(),
              [](const TraceEvent* x, const TraceEvent* y) {
                if (x->time != y->time) return x->time < y->time;
                if (x->actor_kind != y->actor_kind) {
                  return x->actor_kind < y->actor_kind;
                }
                if (x->actor != y->actor) return x->actor < y->actor;
                return x->seq < y->seq;
              });

    // node -> client -> live reservation split R_i,d.
    std::map<std::uint32_t, std::map<std::uint32_t, std::int64_t>> split;
    // (lender, borrower) -> (granted, repaid) per the coordinator ledger.
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::pair<std::int64_t, std::int64_t>>
        pair_flow;
    const auto check_node_commit = [&](std::uint32_t node,
                                       std::uint32_t client, SimTime at) {
      const auto caps = node_caps.find(node);
      if (caps == node_caps.end()) return;
      std::int64_t reserved = 0;
      for (const auto& [cli, res] : split[node]) {
        reserved = SatAdd(reserved, res);
      }
      ++report.checks_run;
      if (reserved > caps->second.first) {
        fail("C3", Fmt("node %u: reservations sum to %lld, above the "
                       "aggregate capacity %lld, after client %u moved at "
                       "t=%lld",
                       node, static_cast<long long>(reserved),
                       static_cast<long long>(caps->second.first), client,
                       static_cast<long long>(at)));
      }
      const std::int64_t mine = split[node][client];
      if (mine > caps->second.second) {
        fail("C3", Fmt("node %u: client %u's split %lld is above the local "
                       "capacity %lld at t=%lld",
                       node, client, static_cast<long long>(mine),
                       static_cast<long long>(caps->second.second),
                       static_cast<long long>(at)));
      }
    };
    for (const TraceEvent* pe : merged) {
      const TraceEvent& e = *pe;
      if (e.actor_kind == ActorKind::kMonitor) {
        const auto client = static_cast<std::uint32_t>(e.a);
        switch (e.type) {
          case EventType::kAdmit:
          case EventType::kReadmit:
          case EventType::kReservationUpdate:
            split[e.actor][client] = e.b;
            check_node_commit(e.actor, client, e.time);
            break;
          case EventType::kRelease:
          case EventType::kLeaseExpire:
            split[e.actor].erase(client);
            break;
          default:
            break;
        }
        continue;
      }
      if (e.actor_kind != ActorKind::kCluster) continue;
      switch (e.type) {
        case EventType::kClusterRebalance: {
          // After the coordinator finished moving a client's splits, they
          // must still sum to its cluster-wide reservation.
          const auto client = static_cast<std::uint32_t>(e.a);
          const auto ci = facts.clients.find(client);
          if (ci == facts.clients.end() || ci->second.spec_reservation < 0) {
            break;
          }
          std::int64_t sum = 0;
          for (const auto& [node, res] : split) {
            const auto it = res.find(client);
            if (it != res.end()) sum = SatAdd(sum, it->second);
          }
          ++report.checks_run;
          if (sum != ci->second.spec_reservation) {
            fail("C1", Fmt("period %u: client %u's per-node splits sum to "
                           "%lld after a rebalance, not its cluster-wide "
                           "reservation %lld",
                           e.period, client, static_cast<long long>(sum),
                           static_cast<long long>(
                               ci->second.spec_reservation)));
          }
          break;
        }
        case EventType::kNodeJoin:
        case EventType::kNodeLeave:
        case EventType::kCoordFailover: {
          // C4: membership churn and coordinator promotion move
          // reservation between nodes but never mint or destroy it —
          // every live client's splits must still sum to its cluster-wide
          // R_i the moment the event lands (the monitors' reservation
          // updates sort before the coordinator event at the same time).
          for (const auto& [client, info] : facts.clients) {
            if (info.spec_reservation <= 0) continue;
            bool present = false;
            std::int64_t sum = 0;
            for (const auto& [node, res] : split) {
              const auto it = res.find(client);
              if (it != res.end()) {
                present = true;
                sum = SatAdd(sum, it->second);
              }
            }
            if (!present) continue;  // departed or purged before the event
            ++report.checks_run;
            if (sum != info.spec_reservation) {
              fail("C4", Fmt("period %u: client %u's per-node splits sum "
                             "to %lld at a %s event, not its cluster-wide "
                             "reservation %lld",
                             e.period, client, static_cast<long long>(sum),
                             std::string(ToString(e.type)).c_str(),
                             static_cast<long long>(
                                 info.spec_reservation)));
            }
          }
          break;
        }
        case EventType::kBorrowGrant: {
          // a = lender, b = tokens, c = borrower.
          auto& grant = pair_flow[{static_cast<std::uint32_t>(e.a),
                                   static_cast<std::uint32_t>(e.c)}];
          grant.first = SatAdd(grant.first, e.b);
          break;
        }
        case EventType::kBorrowRepay: {
          // a = borrower, b = tokens, c = lender.
          auto& flow = pair_flow[{static_cast<std::uint32_t>(e.c),
                                  static_cast<std::uint32_t>(e.a)}];
          flow.second = SatAdd(flow.second, e.b);
          ++report.checks_run;
          if (flow.second > flow.first) {
            fail("C2", Fmt("period %u: node %u repaid node %u %lld tokens "
                           "in total, above the %lld it ever borrowed",
                           e.period, static_cast<std::uint32_t>(e.a),
                           static_cast<std::uint32_t>(e.c),
                           static_cast<long long>(flow.second),
                           static_cast<long long>(flow.first)));
          }
          break;
        }
        default:
          break;
      }
    }

    // C2 (flow matching): each node's pool-word borrow traffic must equal
    // what the coordinator ledger says moved through it.
    // Every node either side names is checked; one neither names moved
    // nothing and trivially matches.
    std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> coord;
    const auto add = [](std::int64_t& total, std::int64_t tokens) {
      total = SatAdd(total, tokens);
    };
    for (const auto& [pair, flow] : pair_flow) {
      add(coord[pair.first].first, flow.first);    // lender sent the grant
      add(coord[pair.second].second, flow.first);  // borrower received it
      add(coord[pair.second].first, flow.second);  // borrower sent repayment
      add(coord[pair.first].second, flow.second);  // lender received it
    }
    const auto node_flow = ledger.BorrowFlows();
    std::set<std::uint32_t> flow_nodes;
    for (const auto& [d, flow] : node_flow) flow_nodes.insert(d);
    for (const auto& [d, flow] : coord) flow_nodes.insert(d);
    for (const std::uint32_t d : flow_nodes) {
      const auto monitor_flow = node_flow.find(d);
      const std::int64_t out =
          monitor_flow != node_flow.end() ? monitor_flow->second.first : 0;
      const std::int64_t in =
          monitor_flow != node_flow.end() ? monitor_flow->second.second : 0;
      const auto ledger_flow = coord.find(d);
      const std::int64_t ledger_out =
          ledger_flow != coord.end() ? ledger_flow->second.first : 0;
      const std::int64_t ledger_in =
          ledger_flow != coord.end() ? ledger_flow->second.second : 0;
      report.checks_run += 2;
      if (out != ledger_out) {
        fail("C2", Fmt("node %u: pool word lent %lld tokens but the "
                       "coordinator ledger accounts for %lld "
                       "(grants as lender + repayments as borrower)",
                       d, static_cast<long long>(out),
                       static_cast<long long>(ledger_out)));
      }
      if (in != ledger_in) {
        fail("C2", Fmt("node %u: pool word absorbed %lld tokens but the "
                       "coordinator ledger accounts for %lld "
                       "(grants as borrower + repayments as lender)",
                       d, static_cast<long long>(in),
                       static_cast<long long>(ledger_in)));
      }
    }
  }

  report.periods = std::move(rows);
  return report;
}

std::string AuditReport::Summary() const {
  std::string out;
  out += Fmt("audit: %zu periods, %d checks, %d guarantee checks, %s fabric\n",
             periods.size(), checks_run, guarantee_checks,
             clean ? "clean" : "faulted");
  for (const AuditPeriod& p : periods) {
    if (cluster) out += Fmt("  node %u", p.node);
    out += Fmt("  period %u: capacity=%lld dispatched=%lld initial=%lld "
               "granted=%lld minted=%lld end=%lld completed=%lld "
               "faa_done=%lld%s%s%s\n",
               p.period, static_cast<long long>(p.capacity),
               static_cast<long long>(p.dispatched),
               static_cast<long long>(p.initial_pool),
               static_cast<long long>(p.granted),
               static_cast<long long>(p.minted),
               static_cast<long long>(p.end_pool),
               static_cast<long long>(p.completed),
               static_cast<long long>(p.faa_done),
               p.closed ? "" : " (open)", p.measured ? " [measured]" : "",
               p.reporting ? "" : " [no-reporting]");
  }
  if (violations.empty()) {
    out += "PASS: all conservation and guarantee identities hold\n";
  } else {
    out += Fmt("FAIL: %zu violation(s)\n", violations.size());
    for (const AuditViolation& v : violations) {
      out += Fmt("  [%s] %s\n", v.check.c_str(), v.detail.c_str());
    }
  }
  return out;
}

int FirstFailedCheck(const AuditReport& report) {
  int first = 0;
  for (const AuditViolation& v : report.violations) {
    if (v.check.size() < 2 || (v.check[0] != 'A' && v.check[0] != 'C')) {
      continue;
    }
    int k = 0;
    for (std::size_t i = 1; i < v.check.size(); ++i) {
      const char c = v.check[i];
      if (c < '0' || c > '9') {
        k = 0;
        break;
      }
      k = k * 10 + (c - '0');
    }
    if (k == 0) continue;
    if (v.check[0] == 'A' && k > 10) {
      k += 10;  // survivability band: A11 -> 21 (haechi_audit exits 31)
    } else if (v.check[0] == 'C' && k > 3) {
      k += 20;  // survivability band: C4 -> 24 (haechi_audit exits 34)
    } else if (v.check[0] == 'C') {
      k += 10;  // cluster band: haechi_audit exits 20+k for Ck
    }
    if (first == 0 || k < first) first = k;
  }
  return first;
}

}  // namespace haechi::obs
