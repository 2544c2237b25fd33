#include "obs/trace.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace haechi::obs {

namespace {

Recorder* g_active = nullptr;

struct TypeName {
  EventType type;
  std::string_view name;
};

// Stable wire names: the CSV exporter writes them and the audit tool parses
// them back, so renaming one is a trace-format break.
constexpr TypeName kTypeNames[] = {
    {EventType::kMonitorPeriodStart, "period_start"},
    {EventType::kMonitorPeriodEnd, "period_end"},
    {EventType::kPoolSample, "pool_sample"},
    {EventType::kTokenConvert, "convert"},
    {EventType::kCapacityEstimate, "capacity_estimate"},
    {EventType::kClientPeriodReport, "client_period_report"},
    {EventType::kReportSignal, "report_signal"},
    {EventType::kReportResend, "report_resend"},
    {EventType::kLeaseExpire, "lease_expire"},
    {EventType::kAdmit, "admit"},
    {EventType::kAdmitReject, "admit_reject"},
    {EventType::kReadmit, "readmit"},
    {EventType::kRelease, "release"},
    {EventType::kPoolRebalance, "pool_rebalance"},
    {EventType::kReservationUpdate, "reservation_update"},
    {EventType::kPoolBorrowOut, "borrow_out"},
    {EventType::kPoolBorrowIn, "borrow_in"},
    {EventType::kShardSample, "shard_sample"},
    {EventType::kMonitorCheckpoint, "monitor_checkpoint"},
    {EventType::kMonitorCrash, "monitor_crash"},
    {EventType::kMonitorRecover, "monitor_recover"},
    {EventType::kEnginePeriodStart, "engine_period_start"},
    {EventType::kTokenDecay, "decay"},
    {EventType::kTokenFetch, "faa_post"},
    {EventType::kTokenFetchDone, "faa_done"},
    {EventType::kTokenFetchFail, "faa_fail"},
    {EventType::kTokenDiscard, "faa_discard"},
    {EventType::kPoolEmpty, "pool_empty"},
    {EventType::kReportWrite, "report_write"},
    {EventType::kEngineStop, "engine_stop"},
    {EventType::kFaaExhausted, "faa_exhausted"},
    {EventType::kIoQueued, "io_queued"},
    {EventType::kIoIssue, "io_issue"},
    {EventType::kIoComplete, "io_complete"},
    {EventType::kDegradedEnter, "degraded_enter"},
    {EventType::kDegradedPeriod, "degraded_period"},
    {EventType::kDegradedExit, "degraded_exit"},
    {EventType::kNodeCrash, "node_crash"},
    {EventType::kNodeRestart, "node_restart"},
    {EventType::kNodePause, "node_pause"},
    {EventType::kNodeResume, "node_resume"},
    {EventType::kQpError, "qp_error"},
    {EventType::kOpDropped, "op_dropped"},
    {EventType::kOpDelayed, "op_delayed"},
    {EventType::kOpDuplicated, "op_duplicated"},
    {EventType::kRdmaIssue, "rdma_issue"},
    {EventType::kRdmaComplete, "rdma_complete"},
    {EventType::kKvIssue, "kv_issue"},
    {EventType::kKvComplete, "kv_complete"},
    {EventType::kBorrowRequest, "borrow_request"},
    {EventType::kBorrowGrant, "borrow_grant"},
    {EventType::kBorrowRepay, "borrow_repay"},
    {EventType::kClusterStaleReport, "cluster_stale_report"},
    {EventType::kClusterRebalance, "cluster_rebalance"},
    {EventType::kNodeJoin, "node_join"},
    {EventType::kNodeLeave, "node_leave"},
    {EventType::kCoordFailover, "coord_failover"},
    {EventType::kRunConfig, "run_config"},
    {EventType::kClientSpec, "client_spec"},
    {EventType::kMeasureStart, "measure_start"},
    {EventType::kMeasureEnd, "measure_end"},
    {EventType::kClientCrash, "client_crash"},
    {EventType::kClientRestart, "client_restart"},
    {EventType::kClusterConfig, "cluster_config"},
    {EventType::kEngineBinding, "engine_binding"},
    {EventType::kNodeCapacity, "node_capacity"},
    {EventType::kTenantSpec, "tenant_spec"},
    {EventType::kControllerConfig, "controller_config"},
    {EventType::kControlAction, "control_action"},
    {EventType::kControlRecovered, "control_recovered"},
};

constexpr std::string_view kKindNames[kActorKinds] = {
    "monitor", "engine", "fabric", "kv", "harness", "cluster", "controller"};

}  // namespace

std::string_view ToString(EventType type) {
  for (const TypeName& entry : kTypeNames) {
    if (entry.type == type) return entry.name;
  }
  return "unknown";
}

std::string_view ToString(ActorKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < kActorKinds ? kKindNames[index] : "unknown";
}

bool EventTypeFromName(std::string_view name, EventType& out) {
  for (const TypeName& entry : kTypeNames) {
    if (entry.name == name) {
      out = entry.type;
      return true;
    }
  }
  return false;
}

bool ActorKindFromName(std::string_view name, ActorKind& out) {
  for (std::size_t i = 0; i < kActorKinds; ++i) {
    if (kKindNames[i] == name) {
      out = static_cast<ActorKind>(i);
      return true;
    }
  }
  return false;
}

Recorder::Recorder(sim::Simulator& sim) : Recorder(sim, Options{}) {}

Recorder::Recorder(sim::Simulator& sim, Options options)
    : sim_(&sim), options_(options) {
  HAECHI_EXPECTS(options_.ring_capacity > 0);
  for (auto& per_kind : rings_) per_kind.resize(options_.preallocate_actors);
}

Recorder::Recorder(ClockFn clock, Options options)
    : clock_(std::move(clock)), options_(options) {
  HAECHI_EXPECTS(options_.ring_capacity > 0);
  HAECHI_EXPECTS(clock_ != nullptr);
  for (auto& per_kind : rings_) per_kind.resize(options_.preallocate_actors);
}

Recorder::~Recorder() { SetTap(nullptr); }

Recorder::Ring& Recorder::RingFor(ActorKind kind, std::uint32_t actor) {
  auto& per_kind = rings_[static_cast<std::size_t>(kind)];
  if (actor >= per_kind.size()) per_kind.resize(actor + 1);
  return per_kind[actor];
}

void Recorder::Emit(ActorKind kind, std::uint32_t actor, EventType type,
                    std::uint32_t period, std::int64_t a, std::int64_t b,
                    std::int64_t c) {
  EmitAt(sim_ != nullptr ? sim_->Now() : clock_(), kind, actor, type, period,
         a, b, c);
}

void Recorder::EmitAt(SimTime time, ActorKind kind, std::uint32_t actor,
                      EventType type, std::uint32_t period, std::int64_t a,
                      std::int64_t b, std::int64_t c) {
  Ring& ring = RingFor(kind, actor);
  TraceEvent event;
  event.time = time;
  event.seq = ring.appended;
  event.type = type;
  event.actor_kind = kind;
  event.actor = actor;
  event.period = period;
  event.a = a;
  event.b = b;
  event.c = c;
  if (ring.buf.size() < options_.ring_capacity) {
    ring.buf.push_back(event);  // grow lazily up to capacity
  } else {
    ring.buf[ring.appended % options_.ring_capacity] = event;
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
    // First wrap fires the one-shot truncation notification (exactly once
    // across all emitters — the exchange arbitrates concurrent wraps).
    if (drop_notify_ &&
        !drop_notified_.exchange(true, std::memory_order_relaxed)) {
      drop_notify_();
    }
  }
  ++ring.appended;
  total_emitted_.fetch_add(1, std::memory_order_relaxed);
  // Cheap common case: no tap installed, one relaxed load. The full
  // epoch-counted entry only happens when a tap might be present.
  if (tap_.load(std::memory_order_relaxed) != nullptr) RunTap(event);
}

void Recorder::RunTap(const TraceEvent& event) {
  // Epoch entry: count in, re-load the pointer, count out. SetTap swaps the
  // pointer first and then waits for entered == exited, so once it returns
  // no emitter can still be running (or about to run) the old callable.
  tap_entered_.fetch_add(1, std::memory_order_seq_cst);
  TapFn* tap = tap_.load(std::memory_order_seq_cst);
  if (tap != nullptr) (*tap)(event);
  tap_exited_.fetch_add(1, std::memory_order_seq_cst);
}

void Recorder::SetTap(std::function<void(const TraceEvent&)> tap) {
  TapFn* next = tap ? new TapFn(std::move(tap)) : nullptr;
  TapFn* old = tap_.exchange(next, std::memory_order_seq_cst);
  if (old != nullptr) {
    // Quiesce: wait for a moment with no emitter inside the tap section.
    // Any emitter entering after the exchange sees the new pointer, so once
    // entered == exited the old callable is unreachable.
    while (tap_entered_.load(std::memory_order_seq_cst) !=
           tap_exited_.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
    delete old;
  }
}

RingSegments Recorder::Segments(const Ring& ring) {
  const std::span<const TraceEvent> buf(ring.buf);
  if (ring.appended <= buf.size()) return {buf, {}};
  // The ring wrapped: the oldest retained event sits right after the write
  // cursor.
  const std::size_t cursor = ring.appended % buf.size();
  return {buf.subspan(cursor), buf.first(cursor)};
}

std::vector<TraceEvent> Recorder::ActorEvents(ActorKind kind,
                                              std::uint32_t actor) const {
  const auto& per_kind = rings_[static_cast<std::size_t>(kind)];
  if (actor >= per_kind.size()) return {};
  const RingSegments segments = Segments(per_kind[actor]);
  std::vector<TraceEvent> out;
  out.reserve(segments.size());
  out.insert(out.end(), segments.older.begin(), segments.older.end());
  out.insert(out.end(), segments.newer.begin(), segments.newer.end());
  return out;
}

RingSegments TimeOrdered(RingSegments segments,
                         std::vector<TraceEvent>& scratch) {
  const auto earlier = [](const TraceEvent& x, const TraceEvent& y) {
    return x.time < y.time;
  };
  const auto& [older, newer] = segments;
  if (std::is_sorted(older.begin(), older.end(), earlier) &&
      std::is_sorted(newer.begin(), newer.end(), earlier) &&
      (newer.empty() || older.back().time <= newer.front().time)) {
    return segments;
  }
  // A ring with several writers (the threaded harness ring) can hold a
  // later-stamped event before an earlier one. Sorting just that ring by
  // (time, seq) gives the sub-stream a global sort would.
  scratch.assign(older.begin(), older.end());
  scratch.insert(scratch.end(), newer.begin(), newer.end());
  std::sort(scratch.begin(), scratch.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              if (x.time != y.time) return x.time < y.time;
              return x.seq < y.seq;
            });
  return {scratch, {}};
}

std::vector<TraceEvent> Recorder::Merged() const {
  // One cursor per non-empty segment, numbered in (kind, actor, older ->
  // newer) order. Every ring is (time, seq)-ordered, so a min-heap keyed on
  // (head time, number) yields the total order (time, kind, actor, seq) in
  // one pass.
  struct Cursor {
    SimTime time;          // time of *at
    std::uint32_t order;   // position in (kind, actor, segment) order
    const TraceEvent* at;  // next event
    const TraceEvent* end;
  };
  std::vector<std::vector<TraceEvent>> sorted;  // copies of unordered rings
  std::vector<Cursor> heap;
  std::size_t total = 0;
  for (std::size_t kind = 0; kind < kActorKinds; ++kind) {
    ForEachActor(static_cast<ActorKind>(kind),
                 [&](std::uint32_t, RingSegments segments) {
                   std::vector<TraceEvent> scratch;
                   segments = TimeOrdered(segments, scratch);
                   if (!scratch.empty()) sorted.push_back(std::move(scratch));
                   total += segments.size();
                   for (const std::span<const TraceEvent> part :
                        {segments.older, segments.newer}) {
                     if (part.empty()) continue;
                     heap.push_back({part.front().time,
                                     static_cast<std::uint32_t>(heap.size()),
                                     part.data(), part.data() + part.size()});
                   }
                 });
  }
  const auto later = [](const Cursor& x, const Cursor& y) {
    return x.time != y.time ? x.time > y.time : x.order > y.order;
  };
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<TraceEvent> out;
  out.reserve(total);
  while (!heap.empty()) {
    Cursor& top = heap.front();
    out.push_back(*top.at);
    if (++top.at == top.end) {
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
      continue;
    }
    top.time = top.at->time;
    // Sift the advanced cursor down. A ring's events come in bursts, so it
    // usually stays on top after one or two comparisons.
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= heap.size()) break;
      if (child + 1 < heap.size() && later(heap[child], heap[child + 1])) {
        ++child;
      }
      if (!later(heap[i], heap[child])) break;
      std::swap(heap[i], heap[child]);
      i = child;
    }
  }
  return out;
}

Recorder* ActiveRecorder() { return g_active; }

ScopedRecorder::ScopedRecorder(Recorder* recorder) : previous_(g_active) {
  g_active = recorder;
}

ScopedRecorder::~ScopedRecorder() { g_active = previous_; }

}  // namespace haechi::obs
