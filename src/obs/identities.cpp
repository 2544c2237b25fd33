#include "obs/identities.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace haechi::obs {

std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

bool IsFaultEvent(EventType type) {
  switch (type) {
    case EventType::kOpDropped:
    case EventType::kOpDelayed:
    case EventType::kOpDuplicated:
    case EventType::kQpError:
    case EventType::kNodeCrash:
    case EventType::kNodeRestart:
    case EventType::kNodePause:
    case EventType::kNodeResume:
    case EventType::kClientCrash:
    case EventType::kMonitorCrash:
    case EventType::kMonitorRecover:
    case EventType::kNodeJoin:
    case EventType::kNodeLeave:
    case EventType::kCoordFailover:
      return true;
    default:
      return false;
  }
}

// ---- StreamCheck -----------------------------------------------------------

void StreamCheck::Observe(const TraceEvent& e, const FindingSink& sink) {
  const std::uint64_t key = Key(e.actor_kind, e.actor);
  bool fresh = false;
  if (key != last_key_) {
    const auto [it, inserted] = cursors_.try_emplace(key);
    last_key_ = key;
    last_ = &it->second;
    fresh = inserted;
  }
  Cursor& cursor = *last_;
  // Findings name the stream and seqs themselves (formatted only on a
  // finding, never on the per-event path).
  const auto actor = [&] {
    return std::string(ToString(e.actor_kind)) + "/" + std::to_string(e.actor);
  };
  const auto seq = static_cast<unsigned long long>(e.seq);
  if (e.seq != cursor.next_seq) {
    cursor.truncated = true;
    sink({"A1",
          fresh ? Fmt("%s: stream starts at seq %llu (ring wrapped or head "
                      "of trace removed)",
                      actor().c_str(), seq)
                : Fmt("%s: seq gap %llu -> %llu", actor().c_str(),
                      static_cast<unsigned long long>(cursor.next_seq) - 1,
                      seq),
          &e, e.period, static_cast<std::int64_t>(cursor.next_seq),
          static_cast<std::int64_t>(e.seq), true});
  }
  if (!fresh && e.time < cursor.last_time) {
    sink({"A1",
          Fmt("%s: time goes backwards at seq %llu", actor().c_str(), seq), &e,
          e.period, cursor.last_time, e.time, false});
  }
  cursor.next_seq = e.seq + 1;
  cursor.last_time = e.time;
}

// ---- RunFacts --------------------------------------------------------------

std::int64_t ClientFacts::ReservationAt(SimTime t) const {
  std::int64_t r = spec_reservation;
  for (const auto& [at, res] : admits) {
    if (at <= t) r = res;
  }
  return r;
}

bool ClientFacts::DepartedBy(SimTime t) const {
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

void RunFacts::Observe(const TraceEvent& e) {
  if (e.actor_kind == ActorKind::kHarness) have_harness = true;
  const auto client = static_cast<std::uint32_t>(e.a);
  switch (e.type) {
    case EventType::kRunConfig:
      period_len = e.a;
      token_batch = e.b;
      break;
    case EventType::kClusterConfig:
      cluster = true;
      break;
    case EventType::kEngineBinding:
      bindings[e.actor] = {client, static_cast<std::uint32_t>(e.b),
                           static_cast<std::uint32_t>(e.c)};
      break;
    case EventType::kClientSpec:
      clients[e.actor].spec_reservation = e.a;
      clients[e.actor].spec_limit = e.b;
      clients[e.actor].spec_demand = e.c;
      break;
    case EventType::kMeasureStart:
      measure_start = e.time;
      break;
    case EventType::kMeasureEnd:
      measure_end = e.time;
      break;
    case EventType::kClientCrash:
      clients[e.actor].crash_windows.emplace_back(e.time, kSimTimeMax);
      break;
    case EventType::kClientRestart: {
      auto& windows = clients[e.actor].crash_windows;
      if (!windows.empty() && windows.back().second == kSimTimeMax) {
        windows.back().second = e.time;
      }
      break;
    }
    case EventType::kAdmit:
    case EventType::kReadmit:
      clients[client].admits.emplace_back(e.time, e.b);
      clients[client].admitted_limit = e.c;
      break;
    case EventType::kReservationUpdate:
      // A controller resize re-baselines the reservation the guarantee
      // judges against, exactly like a re-admission.
      clients[client].admits.emplace_back(e.time, e.b);
      break;
    case EventType::kRelease:
    case EventType::kLeaseExpire:
      clients[client].departures.push_back(e.time);
      break;
    default:
      break;
  }
}

bool RunFacts::Measured(SimTime start) const {
  if (!have_harness) return true;
  const SimTime end = PeriodEnd(start);
  return measure_start >= 0 && start >= measure_start &&
         (measure_end < 0 || (end != kSimTimeMax && end <= measure_end));
}

bool RunFacts::Touches(SimTime open, SimTime close, SimTime start) const {
  const SimTime padded = close == kSimTimeMax || period_len <= 0
                             ? kSimTimeMax
                             : SatAdd(close, SatMul(2, period_len));
  return open <= PeriodEnd(start) &&
         (padded == kSimTimeMax || padded >= start);
}

// ---- PoolLedger ------------------------------------------------------------

void PoolLedger::ObservePool(const TraceEvent& e, Node& node,
                             std::int64_t value, const FindingSink& sink) {
  if (node.row == kNoRow) return;
  AuditPeriod& row = rows_[node.row];
  ++checks_;
  if (value > node.last_pool) {
    sink({"A3",
          Fmt("pool rose without a monitor write (%s)",
              std::string(ToString(e.type)).c_str()),
          &e, row.period, node.last_pool, value});
  } else {
    row.granted = SatAdd(row.granted, SatSub(node.last_pool, value));
  }
  node.last_pool = value;
  node.last_observation = std::max(node.last_observation, e.time);
  last_observation_ = std::max(last_observation_, e.time);
}

const AuditPeriod* PoolLedger::Observe(const TraceEvent& e, RunFacts& facts,
                                       const FindingSink& sink) {
  Node& node = nodes_[e.actor];
  AuditPeriod* row = node.row == kNoRow ? nullptr : &rows_[node.row];
  switch (e.type) {
    case EventType::kMonitorPeriodStart: {
      if (retain_rows_ || row == nullptr) {
        node.row = rows_.size();
        rows_.emplace_back();
      }
      rows_[node.row] = {e.actor, e.period, e.time, e.a, e.b, e.c};
      node.borrow_credit = 0;
      ++checks_;
      const std::int64_t identity =
          std::max<std::int64_t>(SatSub(e.a, e.b), 0);
      if (e.c != identity) {
        sink({"A2",
              "initial pool breaks the dispatch identity "
              "max(capacity - dispatched, 0)",
              &e, e.period, identity, e.c});
      }
      node.last_pool = e.c;
      node.last_observation = std::max(node.last_observation, e.time);
      last_observation_ = std::max(last_observation_, e.time);
      if (node.prev_start >= 0 && facts.period_len == 0) {
        facts.period_len = SatSub(e.time, node.prev_start);
      }
      node.prev_start = e.time;
      return nullptr;
    }
    case EventType::kPoolSample:
    case EventType::kPoolRebalance:
      // A sharded pool's rebalance is sum-neutral, so the tracked shard sum
      // it reports behaves exactly like a sample: any drop is client grants
      // the rebalance witnessed, and a rise would be a real A3 violation.
      ObservePool(e, node, e.a, sink);
      return nullptr;
    case EventType::kPoolBorrowOut:
    case EventType::kPoolBorrowIn:
      // a = raw pool before the coordinator-driven move, b = after. The
      // move itself is ledgered as lent/absorbed, not granted, so it must
      // neither count as a grant (Out) nor trip A3 (In).
      ObservePool(e, node, e.a, sink);
      node.borrow_credit = SatAdd(node.borrow_credit, SatSub(e.b, e.a));
      if (e.type == EventType::kPoolBorrowOut) {
        node.lent = SatAdd(node.lent, SatSub(e.a, e.b));
      } else {
        node.absorbed = SatAdd(node.absorbed, SatSub(e.b, e.a));
      }
      node.last_pool = e.b;
      return nullptr;
    case EventType::kTokenConvert: {
      ObservePool(e, node, e.a, sink);
      if (row == nullptr) return nullptr;
      row->minted = SatAdd(row->minted, SatSub(e.b, e.a));
      node.last_pool = e.b;
      if (facts.period_len <= 0) return nullptr;
      ++checks_;
      const SimDuration left = std::max<SimDuration>(
          SatSub(facts.period_len, SatSub(e.time, row->start_time)), 0);
      const auto budget = static_cast<std::int64_t>(std::clamp<__int128>(
          static_cast<__int128>(row->capacity) * left / facts.period_len, 0,
          I64Limits::max()));
      // Absorbed loans ride on top of the paper's time budget: the
      // conversion preserves them, so the bound extends by the period's
      // positive net borrow credit.
      const std::int64_t allowed =
          SatAdd(budget, std::max<std::int64_t>(node.borrow_credit, 0));
      if (e.b > allowed) {
        sink({"A4",
              "conversion wrote above the C*(T-t)/T time budget (plus any "
              "absorbed borrow credit)",
              &e, row->period, allowed, e.b});
      }
      return nullptr;
    }
    case EventType::kMonitorPeriodEnd: {
      ObservePool(e, node, e.a, sink);
      if (row == nullptr || row->period != e.period) return nullptr;
      const bool first_close = !row->closed;
      row->end_pool = e.a;
      row->completed = e.b;
      row->closed = true;
      // The monitor stamps its own granted total into c. A zero can also
      // mean a trace from before the stamp, so only a nonzero claim is
      // held against the stream-derived figure.
      if (e.c > 0) {
        ++checks_;
        if (e.c != row->granted) {
          sink({"A3",
                "monitor ledger granted diverges from the grant total "
                "derived from pool observations",
                &e, row->period, row->granted, e.c});
        }
      }
      return first_close ? row : nullptr;
    }
    case EventType::kClientPeriodReport: {
      std::int64_t& done =
          completed_[e.period][static_cast<std::uint32_t>(e.a)];
      done = SatAdd(done, e.b);
      return nullptr;
    }
    case EventType::kReportSignal:
    case EventType::kCapacityEstimate:
      reporting_.insert(e.period);
      return nullptr;
    case EventType::kMonitorCrash:
      facts.outages.push_back(
          {e.actor, e.period,
           node.last_observation >= 0 ? node.last_observation : e.time});
      return nullptr;
    case EventType::kMonitorRecover:
      for (auto w = facts.outages.rbegin(); w != facts.outages.rend(); ++w) {
        if (w->node == e.actor && w->close == kSimTimeMax) {
          w->close = e.time;
          break;
        }
      }
      return nullptr;
    default:
      return nullptr;
  }
}

std::int64_t PoolLedger::Completed(std::uint32_t period,
                                   std::uint32_t client) const {
  const auto p = completed_.find(period);
  if (p == completed_.end()) return 0;
  const auto c = p->second.find(client);
  return c != p->second.end() ? c->second : 0;
}

std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>>
PoolLedger::BorrowFlows() const {
  std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> flows;
  for (const auto& [id, node] : nodes_) flows[id] = {node.lent, node.absorbed};
  return flows;
}

// ---- JudgeGuarantee --------------------------------------------------------

int JudgeGuarantee(const RunFacts& facts, const PoolLedger& ledger,
                   const AuditPeriod& period, double guarantee_fraction,
                   const std::function<void(const GuaranteeCheck&)>& judged) {
  const SimTime start = period.start_time;
  if (!facts.Measured(start) || !ledger.Reporting(period.period)) return 0;
  // A period any monitor outage touches holds no guarantee for anyone: the
  // monitor was not provisioning.
  for (const OutageWindow& w : facts.outages) {
    if (facts.Touches(w.open, w.close, start)) return 0;
  }
  int count = 0;
  for (const auto& [client, info] : facts.clients) {
    if (info.spec_demand <= 0) continue;  // closed-loop or unknown demand
    const std::int64_t reservation = facts.ReservationFor(info, start);
    // A client is only on the hook for periods it was alive and settled
    // in: lease departures and scripted crash windows are excluded.
    if (reservation <= 0 || info.DepartedBy(start)) continue;
    if (std::any_of(info.crash_windows.begin(), info.crash_windows.end(),
                    [&](const auto& w) {
                      return facts.Touches(w.first, w.second, start);
                    })) {
      continue;
    }
    const std::int64_t target = std::min(reservation, info.spec_demand);
    ++count;
    judged({client, &info, reservation,
            static_cast<std::int64_t>(guarantee_fraction *
                                      static_cast<double>(target)),
            ledger.Completed(period.period, client)});
  }
  return count;
}

}  // namespace haechi::obs
