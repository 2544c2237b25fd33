#include "obs/audit.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <set>

namespace haechi::obs {

namespace {

constexpr SimTime kTimeMax = std::numeric_limits<SimTime>::max();

std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// What the audit knows about one client, collected across subsystems.
struct ClientInfo {
  std::int64_t spec_reservation = -1;
  std::int64_t spec_demand = -1;
  // (time, reservation) of every admit/readmit the monitor recorded.
  std::vector<std::pair<SimTime, std::int64_t>> admits;
  // Lease expiries / releases (time only).
  std::vector<SimTime> departures;
  // Scripted whole-client crash windows [crash, restart) from the harness.
  std::vector<std::pair<SimTime, SimTime>> crash_windows;

  [[nodiscard]] std::int64_t ReservationAt(SimTime t) const {
    std::int64_t r = spec_reservation;
    for (const auto& [at, res] : admits) {
      if (at <= t) r = res;
    }
    return r;
  }

  [[nodiscard]] bool DepartedBy(SimTime t) const {
    SimTime last_departure = -1;
    for (const SimTime at : departures) {
      if (at <= t) last_departure = std::max(last_departure, at);
    }
    if (last_departure < 0) return false;
    for (const auto& [at, res] : admits) {
      if (at >= last_departure && at <= t) return false;  // readmitted
    }
    return true;
  }
};

/// Cluster striping map entry, from a harness kEngineBinding row.
struct EngineBinding {
  std::uint32_t client = 0;
  std::uint32_t node = 0;
  std::uint32_t tenant = 0;
};

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
  std::int64_t faa_posted = 0;
  std::int64_t faa_done = 0;
  std::int64_t faa_discard = 0;
  /// Tokens posted by done fetches that tagged their delta (c > 0 on
  /// kTokenFetchDone, which every engine now writes).
  std::int64_t tokens_done = 0;
  /// Done fetches with no per-event delta (sim traces written before the
  /// engine core was shared): each drew the kRunConfig token batch.
  std::int64_t faa_done_untagged = 0;
  std::vector<std::int64_t> report_residuals;
};

}  // namespace

AuditReport AuditTrace(const std::vector<TraceEvent>& events,
                       const AuditOptions& options) {
  AuditReport report;
  const auto fail = [&](const char* check, std::string detail) {
    report.violations.push_back({check, std::move(detail)});
  };

  // ---- group into per-actor streams, sorted by sequence number ----------
  using StreamKey = std::pair<unsigned, std::uint32_t>;
  std::map<StreamKey, std::vector<TraceEvent>> streams;
  for (const TraceEvent& e : events) {
    streams[{static_cast<unsigned>(e.actor_kind), e.actor}].push_back(e);
  }

  // ---- A1: stream integrity ---------------------------------------------
  std::set<StreamKey> truncated;
  for (auto& [key, stream] : streams) {
    std::sort(stream.begin(), stream.end(),
              [](const TraceEvent& x, const TraceEvent& y) {
                return x.seq < y.seq;
              });
    ++report.checks_run;
    const auto kind = static_cast<ActorKind>(key.first);
    if (stream.front().seq != 0) {
      truncated.insert(key);
      if (!options.allow_truncated) {
        fail("A1", Fmt("%s/%u: stream starts at seq %llu (ring wrapped or "
                       "head of trace removed)",
                       std::string(ToString(kind)).c_str(), key.second,
                       static_cast<unsigned long long>(stream.front().seq)));
      }
    }
    for (std::size_t i = 1; i < stream.size(); ++i) {
      if (stream[i].seq != stream[i - 1].seq + 1) {
        truncated.insert(key);
        if (!options.allow_truncated) {
          fail("A1", Fmt("%s/%u: seq gap %llu -> %llu",
                         std::string(ToString(kind)).c_str(), key.second,
                         static_cast<unsigned long long>(stream[i - 1].seq),
                         static_cast<unsigned long long>(stream[i].seq)));
        }
      }
      if (stream[i].time < stream[i - 1].time) {
        fail("A1", Fmt("%s/%u: time goes backwards at seq %llu",
                       std::string(ToString(kind)).c_str(), key.second,
                       static_cast<unsigned long long>(stream[i].seq)));
      }
    }
  }

  // ---- run configuration (harness events, with inference fallbacks) -----
  SimDuration period_len = 0;
  std::int64_t token_batch = 0;
  SimTime measure_start = -1;
  SimTime measure_end = -1;
  std::map<std::uint32_t, ClientInfo> clients;
  bool have_harness = false;
  // Cluster deployment map (empty on single-node traces).
  std::map<std::uint32_t, EngineBinding> bindings;      // engine actor -> ...
  std::map<std::uint32_t, std::int64_t> tenant_res;     // tenant -> R_t
  // node -> (aggregate, local) admission capacities.
  std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> node_caps;
  for (const auto& [key, stream] : streams) {
    if (static_cast<ActorKind>(key.first) != ActorKind::kHarness) continue;
    have_harness = true;
    for (const TraceEvent& e : stream) {
      switch (e.type) {
        case EventType::kRunConfig:
          period_len = e.a;
          token_batch = e.b;
          break;
        case EventType::kClusterConfig:
          report.cluster = true;
          report.data_nodes =
              static_cast<std::uint32_t>(std::max<std::int64_t>(e.a, 1));
          break;
        case EventType::kEngineBinding:
          bindings[e.actor] = {static_cast<std::uint32_t>(e.a),
                               static_cast<std::uint32_t>(e.b),
                               static_cast<std::uint32_t>(e.c)};
          break;
        case EventType::kTenantSpec:
          tenant_res[e.actor] = e.a;
          break;
        case EventType::kNodeCapacity:
          node_caps[static_cast<std::uint32_t>(e.a)] = {e.b, e.c};
          break;
        case EventType::kClientSpec:
          clients[e.actor].spec_reservation = e.a;
          clients[e.actor].spec_demand = e.c;
          break;
        case EventType::kMeasureStart:
          measure_start = e.time;
          break;
        case EventType::kMeasureEnd:
          measure_end = e.time;
          break;
        case EventType::kClientCrash:
          clients[e.actor].crash_windows.emplace_back(e.time, kTimeMax);
          break;
        case EventType::kClientRestart:
          if (!clients[e.actor].crash_windows.empty() &&
              clients[e.actor].crash_windows.back().second == kTimeMax) {
            clients[e.actor].crash_windows.back().second = e.time;
          }
          break;
        default:
          break;
      }
    }
  }

  // ---- the monitor walks: A2 (dispatch), A3 (monotone), A4 (conversion) --
  // One walk per monitor actor: single-node traces carry exactly one
  // stream at actor 0, cluster traces one per data node.
  // period -> client -> (completed, residual) from monitor calibration;
  // cluster traces sum each client's per-node reports into its
  // cluster-wide completion (one report per node per period).
  std::map<std::uint32_t, std::map<std::uint32_t,
                                   std::pair<std::int64_t, std::int64_t>>>
      period_reports;
  std::set<std::uint32_t> reporting_periods;
  std::vector<LeaseExpiry> lease_expiries;
  // node -> (tokens lent out, tokens absorbed) per the pool-word borrow
  // events; C2 reconciles these against the coordinator's ledger events.
  std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> node_flow;
  // Monitor-outage windows across all nodes; A9 excludes periods they
  // touch the same way it excludes client crash windows. Each window opens
  // at the node's *last pool observation before the crash*, not the crash
  // itself: grants landing after that observation were never witnessed (the
  // next check tick died with the monitor, and the recovery boundary
  // deliberately leaves the crashed period unclosed), so the window must
  // cover them too.
  std::vector<std::pair<SimTime, SimTime>> monitor_outages;
  SimTime last_pool_observation = -1;
  for (const auto& [mkey, mstream] : streams) {
    if (static_cast<ActorKind>(mkey.first) != ActorKind::kMonitor) continue;
    const std::uint32_t node = mkey.second;
    AuditPeriod* cur = nullptr;
    std::int64_t last_pool = 0;
    bool have_pool = false;
    // This node's most recent pool observation; a crash opens its outage
    // window here (everything after it is unwitnessable).
    SimTime node_last_obs = -1;
    // Infer the period length from consecutive boundaries if the trace has
    // no harness kRunConfig row.
    SimTime prev_start = -1;
    // Net cross-server borrow movement this period (absorbed - lent): the
    // monitor adds it to its conversion target so loans survive the
    // overwrite, and A4's budget must extend by the same credit.
    std::int64_t borrow_credit = 0;
    // client -> this node's live reservation split, for A8 context.
    std::map<std::uint32_t, std::int64_t> live_res;
    // A11 state: checkpoints this node captured, and whether a crash is
    // open (a recovery must follow one).
    std::vector<std::pair<std::uint32_t, std::int64_t>> checkpoints;
    bool crash_open = false;
    std::size_t open_outage = 0;  // index into monitor_outages
    const auto observe = [&](const TraceEvent& e, std::int64_t value) {
      if (!have_pool || cur == nullptr) return;
      ++report.checks_run;
      const std::int64_t drop = last_pool - value;
      if (drop < 0) {
        fail("A3", Fmt("node %u period %u: pool rose %lld -> %lld at t=%lld "
                       "without a monitor write (%s)",
                       node, cur->period, static_cast<long long>(last_pool),
                       static_cast<long long>(value),
                       static_cast<long long>(e.time),
                       std::string(ToString(e.type)).c_str()));
      } else {
        cur->granted += drop;
      }
      last_pool = value;
      last_pool_observation = std::max(last_pool_observation, e.time);
      node_last_obs = std::max(node_last_obs, e.time);
    };
    for (const TraceEvent& e : mstream) {
      switch (e.type) {
        case EventType::kMonitorPeriodStart: {
          report.periods.emplace_back();
          cur = &report.periods.back();
          cur->node = node;
          cur->period = e.period;
          cur->start_time = e.time;
          cur->capacity = e.a;
          cur->dispatched = e.b;
          cur->initial_pool = e.c;
          borrow_credit = 0;
          ++report.checks_run;
          if (e.c != std::max<std::int64_t>(e.a - e.b, 0)) {
            fail("A2", Fmt("node %u period %u: initial_pool %lld != "
                           "max(capacity %lld - dispatched %lld, 0)",
                           node, e.period, static_cast<long long>(e.c),
                           static_cast<long long>(e.a),
                           static_cast<long long>(e.b)));
          }
          last_pool = e.c;
          have_pool = true;
          last_pool_observation = std::max(last_pool_observation, e.time);
          node_last_obs = std::max(node_last_obs, e.time);
          if (period_len == 0 && prev_start >= 0) {
            period_len = e.time - prev_start;
          }
          prev_start = e.time;
          break;
        }
        case EventType::kPoolSample:
          observe(e, e.a);
          break;
        case EventType::kPoolRebalance:
          // Sharded pool: the move is sum-neutral, so the tracked shard
          // sum it reports behaves exactly like a sample — any drop is
          // client grants the rebalance witnessed, and a rise would be a
          // real A3 violation (a monitor-side mint outside conversion).
          observe(e, e.a);
          break;
        case EventType::kPoolBorrowOut:
        case EventType::kPoolBorrowIn: {
          // a = raw pool before the coordinator-driven move, b = after.
          // The move itself is ledgered as lent/absorbed, not granted, so
          // it must not count as a grant (Out) or trip A3 (In).
          observe(e, e.a);
          borrow_credit += e.b - e.a;
          auto& flow = node_flow[node];
          if (e.type == EventType::kPoolBorrowOut) {
            flow.first += e.a - e.b;
          } else {
            flow.second += e.b - e.a;
          }
          last_pool = e.b;
          break;
        }
        case EventType::kTokenConvert: {
          observe(e, e.a);
          if (cur != nullptr) {
            cur->minted += e.b - e.a;
            last_pool = e.b;
            if (period_len > 0) {
              ++report.checks_run;
              const SimDuration left = std::max<SimDuration>(
                  period_len - (e.time - cur->start_time), 0);
              const auto budget = static_cast<std::int64_t>(
                  static_cast<__int128>(cur->capacity) * left / period_len);
              // Absorbed loans ride on top of the paper's time budget: the
              // conversion preserves them, so the bound extends by the
              // period's positive net borrow credit.
              const std::int64_t allowed =
                  std::max<std::int64_t>(budget, 0) +
                  std::max<std::int64_t>(borrow_credit, 0);
              if (e.b > allowed) {
                fail("A4", Fmt("node %u period %u: conversion wrote "
                               "pool=%lld above the time budget C*(T-t)/T "
                               "= %lld (+%lld borrow credit) at t=%lld",
                               node, cur->period, static_cast<long long>(e.b),
                               static_cast<long long>(
                                   std::max<std::int64_t>(budget, 0)),
                               static_cast<long long>(
                                   std::max<std::int64_t>(borrow_credit, 0)),
                               static_cast<long long>(e.time)));
              }
            }
          }
          break;
        }
        case EventType::kMonitorPeriodEnd:
          observe(e, e.a);
          if (cur != nullptr && cur->period == e.period) {
            cur->end_pool = e.a;
            cur->completed = e.b;
            cur->closed = true;
          }
          break;
        case EventType::kClientPeriodReport: {
          auto& slot = period_reports[e.period][static_cast<std::uint32_t>(
              e.a)];
          slot.first += e.b;
          slot.second += e.c;
          break;
        }
        case EventType::kReportSignal:
        case EventType::kCapacityEstimate:
          reporting_periods.insert(e.period);
          break;
        case EventType::kAdmit:
        case EventType::kReadmit:
          clients[static_cast<std::uint32_t>(e.a)].admits.emplace_back(e.time,
                                                                       e.b);
          live_res[static_cast<std::uint32_t>(e.a)] = e.b;
          break;
        case EventType::kReservationUpdate:
          // A controller resize re-baselines the reservation A9 judges
          // against, exactly like a re-admission.
          clients[static_cast<std::uint32_t>(e.a)].admits.emplace_back(e.time,
                                                                       e.b);
          live_res[static_cast<std::uint32_t>(e.a)] = e.b;
          break;
        case EventType::kRelease:
          clients[static_cast<std::uint32_t>(e.a)].departures.push_back(
              e.time);
          live_res.erase(static_cast<std::uint32_t>(e.a));
          break;
        case EventType::kLeaseExpire: {
          const auto client = static_cast<std::uint32_t>(e.a);
          clients[client].departures.push_back(e.time);
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
          crash_open = true;
          open_outage = monitor_outages.size();
          monitor_outages.emplace_back(
              node_last_obs >= 0 ? node_last_obs : e.time, kTimeMax);
          // The crashed period never closes; clients the crash orphaned
          // are reconciled by the recovery, not by lease expiry.
          break;
        case EventType::kMonitorRecover: {
          ++report.checks_run;
          if (!crash_open) {
            fail("A11", Fmt("node %u: recovery at t=%lld without a "
                            "preceding monitor crash",
                            node, static_cast<long long>(e.time)));
          } else {
            crash_open = false;
            monitor_outages[open_outage].second = e.time;
          }
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

  // ---- engine walks: A6 (decay), A7 (report sanity) ----------------------
  // client -> period -> tallies.
  std::map<std::uint32_t, std::map<std::uint32_t, EnginePeriod>> engines;
  bool engine_truncated = false;
  for (const auto& [key, stream] : streams) {
    if (static_cast<ActorKind>(key.first) != ActorKind::kEngine) continue;
    if (truncated.contains(key)) {
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
          if (ep.reservation < 0) {
            ep.reservation = e.a;
          } else {
            ep.reservation += e.a;
          }
          break;
        case EventType::kTokenDecay:
          ep.decay_surrendered += e.a;
          break;
        case EventType::kTokenFetch:
          ++ep.faa_posted;
          if (token_batch == 0) token_batch = e.a;
          break;
        case EventType::kTokenFetchDone:
          ++ep.faa_done;
          if (e.c > 0) {
            ep.tokens_done += e.c;
          } else {
            ++ep.faa_done_untagged;
          }
          break;
        case EventType::kTokenDiscard:
          ++ep.faa_discard;
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
  for (const auto& [key, stream] : streams) {
    for (const TraceEvent& e : stream) {
      switch (e.type) {
        case EventType::kOpDropped:
        case EventType::kOpDelayed:
        case EventType::kNodeCrash:
        case EventType::kNodeRestart:
        case EventType::kNodePause:
        case EventType::kNodeResume:
        case EventType::kQpError:
        case EventType::kClientCrash:
        case EventType::kMonitorCrash:
        case EventType::kMonitorRecover:
        case EventType::kNodeJoin:
        case EventType::kNodeLeave:
        case EventType::kCoordFailover:
          report.clean = false;
          break;
        case EventType::kOpDuplicated:
          report.clean = false;
          ++duplicated_ops;
          break;
        default:
          break;
      }
    }
  }

  // ---- A5: FAA conservation ---------------------------------------------
  bool monitor_truncated = false;
  for (const StreamKey& key : truncated) {
    if (static_cast<ActorKind>(key.first) == ActorKind::kMonitor) {
      monitor_truncated = true;
    }
  }
  // Which node an engine drains: its harness binding on cluster traces,
  // node 0 (the only monitor) otherwise.
  const auto engine_node = [&](std::uint32_t actor) {
    const auto b = bindings.find(actor);
    return b != bindings.end() ? b->second.node : 0u;
  };
  if (token_batch > 0 && !monitor_truncated && !engine_truncated) {
    if (report.clean) {
      // Fault-free: every posted fetch completes in its own period, so the
      // pool decrease each monitor observed must equal the sum of the
      // tokens the fetches against *that node* posted — each fetch's own
      // tagged delta (fetch-batched threaded runs) or B per untagged
      // fetch (sim).
      for (AuditPeriod& p : report.periods) {
        std::int64_t expected = 0;
        for (const auto& [actor, periods] : engines) {
          if (engine_node(actor) != p.node) continue;
          const auto it = periods.find(p.period);
          if (it != periods.end()) {
            p.faa_done += it->second.faa_done;
            expected += it->second.tokens_done +
                        token_batch * it->second.faa_done_untagged;
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
      for (const AuditPeriod& p : report.periods) granted += p.granted;
      std::int64_t done_before_close = 0;
      std::int64_t posted = 0;
      std::int64_t lower = 0;
      std::int64_t upper = 0;
      // A fetch that completed inside a monitor outage drained the pool
      // while nobody was watching: the crashed period never closes, and the
      // recovery boundary re-installs a fresh pool without attributing the
      // wreckage, so its tokens can never show up in `granted`. Exclude it
      // from the lower bound (upper stays an over-estimate either way).
      const auto in_outage = [&](SimTime t) {
        return std::any_of(monitor_outages.begin(), monitor_outages.end(),
                           [&](const auto& w) {
                             return t > w.first && t < w.second;
                           });
      };
      for (const auto& [key, stream] : streams) {
        if (static_cast<ActorKind>(key.first) != ActorKind::kEngine) continue;
        for (const TraceEvent& e : stream) {
          if (e.type == EventType::kTokenFetch) {
            ++posted;
            upper += e.a > 0 ? e.a : token_batch;
          }
          if ((e.type == EventType::kTokenFetchDone ||
               e.type == EventType::kTokenDiscard) &&
              e.time <= last_pool_observation && !in_outage(e.time)) {
            ++done_before_close;
            lower += e.c > 0 ? e.c : token_batch;
          }
        }
      }
      upper += token_batch * duplicated_ops;
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
      const std::int64_t reservation =
          le.node_reservation >= 0
              ? le.node_reservation
              : (clients.contains(client)
                     ? clients[client].ReservationAt(e.time)
                     : -1);
      bool consistent = e.b == reservation;
      for (const auto& [actor, periods] : engines) {
        if (consistent) break;
        // Only reports written by the engine serving (client, node) can
        // justify the reclaimed residual.
        const auto b = bindings.find(actor);
        const std::uint32_t eng_client =
            b != bindings.end() ? b->second.client : actor;
        if (eng_client != client || engine_node(actor) != le.node) continue;
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
  for (AuditPeriod& p : report.periods) {
    p.reporting = reporting_periods.contains(p.period);
    if (!p.closed) continue;
    const SimTime p_end =
        period_len > 0 ? p.start_time + period_len : kTimeMax;
    p.measured = (measure_start < 0 || p.start_time >= measure_start) &&
                 (measure_end < 0 || (p_end != kTimeMax && p_end <= measure_end));
    if (!have_harness) p.measured = p.closed;
    if (!p.measured || !p.reporting) continue;
    if (report.cluster && !a9_judged.insert(p.period).second) continue;
    // A period any monitor outage touches (padded two periods past the
    // recovery for the re-sync handshake and demand ramp) holds no
    // guarantee for anyone: the monitor was not provisioning.
    bool outage_excluded = false;
    for (const auto& [crash, recover] : monitor_outages) {
      const SimTime padded_end = recover == kTimeMax || period_len == 0
                                     ? kTimeMax
                                     : recover + 2 * period_len;
      if (crash <= p_end &&
          (padded_end == kTimeMax || padded_end >= p.start_time)) {
        outage_excluded = true;
      }
    }
    for (const auto& [client, info] : clients) {
      if (info.spec_demand <= 0) continue;  // closed-loop or unknown demand
      const std::int64_t reservation = report.cluster
                                           ? info.spec_reservation
                                           : info.ReservationAt(p.start_time);
      if (reservation <= 0) continue;
      // A client is only on the hook for periods it was alive and settled
      // in: scripted crash windows (padded by two periods for the restart
      // handshake and demand ramp) and lease departures are excluded.
      bool excluded = outage_excluded || info.DepartedBy(p.start_time);
      for (const auto& [crash, restart] : info.crash_windows) {
        const SimTime padded_end =
            restart == kTimeMax || period_len == 0 ? kTimeMax
                                                   : restart + 2 * period_len;
        if (crash <= p_end && (padded_end == kTimeMax || padded_end >= p.start_time)) {
          excluded = true;
        }
      }
      if (excluded) continue;
      const std::int64_t target = std::min(reservation, info.spec_demand);
      const auto floor_target = static_cast<std::int64_t>(
          options.guarantee_fraction * static_cast<double>(target));
      std::int64_t completed = 0;
      const auto pr = period_reports.find(p.period);
      if (pr != period_reports.end()) {
        const auto cr = pr->second.find(client);
        if (cr != pr->second.end()) completed = cr->second.first;
      }
      ++report.checks_run;
      ++report.guarantee_checks;
      if (completed < floor_target) {
        fail("A9", Fmt("period %u: client %u completed %lld tokens, below "
                       "%.2f * min(reservation %lld, demand %lld) = %lld",
                       p.period, client, static_cast<long long>(completed),
                       options.guarantee_fraction,
                       static_cast<long long>(reservation),
                       static_cast<long long>(info.spec_demand),
                       static_cast<long long>(floor_target)));
      }
    }
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
    if (truncated.contains(ckey)) continue;  // A1 already flagged it
    std::map<std::uint32_t, std::int64_t> resize_sum;
    for (const TraceEvent& e : cstream) {
      if (e.type != EventType::kControlAction) continue;
      if (e.a != 0) continue;  // 0 = control::ActionKind::kResize
      resize_sum[e.period] += e.c;
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
  bool cluster_truncated = monitor_truncated;
  for (const StreamKey& key : truncated) {
    if (static_cast<ActorKind>(key.first) == ActorKind::kCluster) {
      cluster_truncated = true;
    }
  }
  if (report.cluster && !cluster_truncated) {
    // C1 (tenant nesting, static): member spec reservations fit the
    // tenant's envelope R_t. Membership comes from the engine bindings.
    std::map<std::uint32_t, std::uint32_t> tenant_of;  // client -> tenant
    for (const auto& [actor, b] : bindings) tenant_of[b.client] = b.tenant;
    std::map<std::uint32_t, std::int64_t> tenant_sum;
    for (const auto& [client, tenant] : tenant_of) {
      const auto ci = clients.find(client);
      if (ci != clients.end() && ci->second.spec_reservation > 0) {
        tenant_sum[tenant] += ci->second.spec_reservation;
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
      for (const auto& [cli, res] : split[node]) reserved += res;
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
          const auto ci = clients.find(client);
          if (ci == clients.end() || ci->second.spec_reservation < 0) break;
          std::int64_t sum = 0;
          for (const auto& [node, res] : split) {
            const auto it = res.find(client);
            if (it != res.end()) sum += it->second;
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
          for (const auto& [client, info] : clients) {
            if (info.spec_reservation <= 0) continue;
            bool present = false;
            std::int64_t sum = 0;
            for (const auto& [node, res] : split) {
              const auto it = res.find(client);
              if (it != res.end()) {
                present = true;
                sum += it->second;
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
        case EventType::kBorrowGrant:
          // a = lender, b = tokens, c = borrower.
          pair_flow[{static_cast<std::uint32_t>(e.a),
                     static_cast<std::uint32_t>(e.c)}]
              .first += e.b;
          break;
        case EventType::kBorrowRepay: {
          // a = borrower, b = tokens, c = lender.
          auto& flow = pair_flow[{static_cast<std::uint32_t>(e.c),
                                  static_cast<std::uint32_t>(e.a)}];
          flow.second += e.b;
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
    std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> coord;
    for (const auto& [pair, flow] : pair_flow) {
      coord[pair.first].first += flow.first;    // lender sent the grant
      coord[pair.second].second += flow.first;  // borrower received it
      coord[pair.second].first += flow.second;  // borrower sent repayment
      coord[pair.first].second += flow.second;  // lender received it
    }
    for (std::uint32_t d = 0; d < report.data_nodes; ++d) {
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
