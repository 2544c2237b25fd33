// The Haechi flight recorder: typed QoS trace events in per-actor ring
// buffers.
//
// Every token-path decision the paper's QoS argument rests on — reservation
// decay, batched FAA fetches, token conversion xi_global, Algorithm 1's
// capacity updates, admission decisions, fault events — is emitted as one
// fixed-size TraceEvent stamped with sim-time and actor identity. Events
// land in a bounded ring per actor (the flight-recorder pattern: appends
// are O(1), old events are overwritten, nothing on the hot path allocates
// or locks; the layout is the standard single-writer ring). Per-actor
// sequence numbers make overwrites detectable: exporters carry them, and
// the audit tool refuses traces with gaps.
//
// Threading contract: each (kind, actor) ring has ONE writer at a time —
// the simulator thread in sim mode, or whichever thread holds that actor's
// lock in the threaded runtime (src/runtime/). Cross-actor emission is safe
// when Options::preallocate_actors covers every actor (no lazy per-kind
// vector growth) — the shared counters are atomic and the tap path is
// epoch-protected. Merged()/ActorEvents() still require quiescence (call
// after workers have been joined).
//
// Cost contract:
//   * HAECHI_TRACE=OFF (CMake option): every HAECHI_TRACE_EVENT expands to
//     `((void)0)` — the arguments are not evaluated, no branch remains.
//     bench_overhead's compile-time guard proves argument elision.
//   * HAECHI_TRACE=ON, no recorder installed: one pointer load + branch
//     per site (the arguments are only evaluated behind the branch).
//   * recorder installed: one bounds-masked store of 56 bytes.
//
// Per-I/O events (RDMA op issue/complete, KV ops) are additionally gated
// behind Recorder::detail() so a full-rate experiment can trace the token
// path without drowning in data-path events.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

#ifndef HAECHI_TRACE_ENABLED
#define HAECHI_TRACE_ENABLED 1
#endif

namespace haechi::sim {
class Simulator;
}  // namespace haechi::sim

namespace haechi::obs {

/// Subsystem a trace event originates from. Doubles as the Perfetto "pid".
enum class ActorKind : std::uint8_t {
  kMonitor = 0,  // data-node QoS monitor (actor = 0)
  kEngine = 1,   // client QoS engine (actor = client id)
  kFabric = 2,   // simulated RDMA fabric (actor = node id)
  kKv = 3,       // KV store client (actor = node id)
  kHarness = 4,  // experiment harness (actor = client index or 0)
  kCluster = 5,  // cluster coordinator (actor = 0)
  kController = 6,  // closed-loop QoS controller (actor = node, 0 off-cluster)
};
inline constexpr std::size_t kActorKinds = 7;

/// The event taxonomy (DESIGN.md §9). Payload fields a/b/c are typed per
/// event; the comments give the binding used by exporters and the audit.
enum class EventType : std::uint16_t {
  // --- monitor (data node) -------------------------------------------------
  kMonitorPeriodStart = 0,  // a=capacity b=dispatched(sum R_i) c=initial_pool
  kMonitorPeriodEnd,        // a=end_pool(raw) b=total_completed c=granted
  kPoolSample,              // a=raw pool word at a check tick
  kTokenConvert,            // a=pool_before(raw) b=new_pool c=outstanding L
  kCapacityEstimate,        // a=reported completions b=next estimate c=branch
  kClientPeriodReport,      // a=client b=completed c=residual (ended period)
  kReportSignal,            // S2 fired: pool decrease first observed
  kReportResend,            // a=client (half-lease nudge)
  kLeaseExpire,             // a=client b=reclaimed residual c=salvaged done
  kAdmit,                   // a=client b=reservation c=limit
  kAdmitReject,             // a=client b=reservation
  kReadmit,                 // a=client b=reservation (restart handshake)
  kRelease,                 // a=client
  kPoolRebalance,           // a=tracked shard-sum after move b=tokens moved
                            // c=(donor<<8)|receiver (sharded pool only)
  kReservationUpdate,       // a=client b=new reservation c=old reservation
  kPoolBorrowOut,           // a=pool_before(raw) b=pool_after c=peer node
  kPoolBorrowIn,            // a=pool_before(raw) b=pool_after c=peer node
  kShardSample,             // a=shard b=shard pool word at a check tick
                            // (sharded threaded runtime; one per shard)
  kMonitorCheckpoint,       // a=epoch(period) b=reservation sum c=pool word
                            // (periodic in-region provisioning snapshot)
  kMonitorCrash,            // monitor control plane lost (timers stopped,
                            // live client table discarded)
  kMonitorRecover,          // a=restored checkpoint epoch b=restored
                            // reservation sum c=clients reconciled live
  // --- engine (client) -----------------------------------------------------
  kEnginePeriodStart = 32,  // a=reservation tokens b=limit
  kTokenDecay,              // a=surrendered tokens b=new bound X
  kTokenFetch,              // a=tokens posted per FAA (B, or B*fetch_batch)
                            // b=shard (threaded runtime)
  kTokenFetchDone,          // a=pool value seen b=acquired c=tokens posted
                            // (always > 0; the audit fails A5 on c <= 0)
  kTokenFetchFail,          // a=backoff ns (post or completion failure)
  kTokenDiscard,            // a=pool value seen (stale period or degraded)
                            // b=0 c=tokens posted, always (as above)
  kPoolEmpty,               // FAA returned nothing; retry armed (step T4)
                            // b=shard (threaded runtime)
  kReportWrite,             // a=residual claims b=completed c=seq
  kEngineStop,              // engine quiesced (crash/teardown)
  kFaaExhausted,            // FAA retry backoff hit its configured maximum
  kIoQueued,                // detail: a=io_id b=queue depth after admit
  kIoIssue,                 // detail: a=io_id b=token source (0=reservation,
                            // 1=pool) c=queue depth after issue
  kIoComplete,              // detail: a=io_id b=outstanding after completion
  kDegradedEnter = 45,      // monitor lease silent past the grace window;
                            // a=last provisioned reservation b=grace ns
  kDegradedPeriod,          // a=reservation re-armed (synthetic period)
                            // b=synthetic periods so far
  kDegradedExit,            // monitor returned; a=periods spent degraded
                            // b=stale queued requests shed on re-sync
  // --- fabric (RDMA) -------------------------------------------------------
  kNodeCrash = 64,          // node killed (actor = node)
  kNodeRestart,             // a=new incarnation
  kNodePause,
  kNodeResume,
  kQpError,                 // a=qp id (scripted QP failure)
  kOpDropped,               // a=opcode b=wr_id (transport fault)
  kOpDelayed,               // a=opcode b=wr_id c=extra delay ns
  kOpDuplicated,            // a=opcode b=wr_id
  kRdmaIssue,               // detail: a=opcode b=wr_id c=bytes
  kRdmaComplete,            // detail: a=opcode b=wr_id c=wc status
  // --- kvstore -------------------------------------------------------------
  kKvIssue = 96,            // detail: a=opcode(0 get/1 put) b=key
  kKvComplete,              // detail: a=opcode b=key c=status code
  // --- cluster coordinator -------------------------------------------------
  kBorrowRequest = 104,     // a=borrower node b=tokens wanted c=quota
  kBorrowGrant,             // a=lender node b=tokens moved c=borrower node
  kBorrowRepay,             // a=borrower node b=tokens repaid c=lender node
  kClusterStaleReport,      // a=node b=client c=periods stale
  kClusterRebalance,        // a=client b=tokens moved c=rejected moves
  kNodeJoin = 109,          // a=node activated b=active nodes after
  kNodeLeave,               // a=node deactivated b=active nodes after
                            // c=tokens migrated off the leaver
  kCoordFailover,           // a=checkpoint epoch restored b=loans
                            // outstanding before c=tokens written off
  // --- harness -------------------------------------------------------------
  kRunConfig = 112,         // a=period ns b=token batch c=measure periods
  kClientSpec,              // a=reservation b=limit c=demand (actor=client)
  kMeasureStart,
  kMeasureEnd,
  kClientCrash,             // scripted whole-client crash (actor=client)
  kClientRestart,
  kClusterConfig,           // a=data nodes D b=tenants T c=borrow policy
  kEngineBinding,           // actor=engine trace actor; a=client b=node
                            // c=tenant (cluster striping map)
  kNodeCapacity,            // a=node b=aggregate capacity c=local capacity
  kTenantSpec,              // actor=tenant; a=reservation b=limit c=clients
  // --- closed-loop controller (DESIGN.md §14) ------------------------------
  kControllerConfig = 128,  // a=policy (control::Policy) b=rule enable mask
                            // c=recovery window (periods)
  kControlAction,           // a=action kind (control::ActionKind) b=client
                            // (-1 monitor-wide) c=value: resize delta
                            // (signed tokens), eta scale milli, or 0
  kControlRecovered,        // a=AlertKind that went quiet b=client (-1)
                            // c=periods from first violation to recovery
};

/// Stable short name ("period_start", "faa_done", ...) used by the CSV and
/// Perfetto exporters; parseable back via EventTypeFromName.
[[nodiscard]] std::string_view ToString(EventType type);
[[nodiscard]] std::string_view ToString(ActorKind kind);
/// Returns false on an unknown name (corrupt trace).
bool EventTypeFromName(std::string_view name, EventType& out);
bool ActorKindFromName(std::string_view name, ActorKind& out);

/// One fixed-size trace record. POD so runs export byte-identically.
struct TraceEvent {
  SimTime time = 0;          // sim-time stamp (ns)
  std::uint64_t seq = 0;     // per-actor sequence, dense from 0
  EventType type{};
  ActorKind actor_kind{};
  std::uint8_t reserved = 0;
  std::uint32_t actor = 0;   // client id / node id / 0
  std::uint32_t period = 0;  // QoS period the event belongs to (0 = none)
  std::uint32_t reserved2 = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
};
static_assert(sizeof(TraceEvent) == 56);

/// One actor's retained events, oldest first, as the (at most two)
/// contiguous pieces of its ring: `older` runs from the oldest retained
/// event to the end of the buffer, `newer` wraps around to the write cursor
/// (empty until the ring wraps).
struct RingSegments {
  std::span<const TraceEvent> older;
  std::span<const TraceEvent> newer;

  [[nodiscard]] std::size_t size() const {
    return older.size() + newer.size();
  }
};

/// `segments` in (time, seq) order, the order a time-ordered merge yields
/// for one actor. A ring whose timestamps never decrease (every
/// single-writer ring) is returned as is; otherwise its events are copied
/// into `scratch`, sorted there, and returned as one segment.
[[nodiscard]] RingSegments TimeOrdered(RingSegments segments,
                                       std::vector<TraceEvent>& scratch);

/// Per-actor bounded flight-recorder rings, stamped from the simulator
/// clock. Install as the process-active recorder with ScopedRecorder; the
/// instrumentation macros write to whatever recorder is active (nullptr =
/// tracing runtime-disabled).
class Recorder {
 public:
  struct Options {
    /// Events retained per actor; older events are overwritten (and the
    /// overwrite is visible to consumers through the seq gap).
    std::size_t ring_capacity = 1u << 16;
    /// Also record per-I/O data-path events (kRdma*/kKv*).
    bool detail = false;
    /// Rings created eagerly per actor kind. The simulator leaves this at 0
    /// (rings grow lazily); the threaded runtime sets it to the actor-count
    /// upper bound so Emit never resizes the per-kind vector while other
    /// threads append to sibling rings.
    std::size_t preallocate_actors = 0;
  };

  /// A time source for stamping events (the threaded runtime passes its
  /// wall Clock; the simulator constructors wire up sim.Now()).
  using ClockFn = std::function<SimTime()>;

  explicit Recorder(sim::Simulator& sim);
  Recorder(sim::Simulator& sim, Options options);
  Recorder(ClockFn clock, Options options);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder();

  /// Appends one event, stamping time from the recorder's clock.
  void Emit(ActorKind kind, std::uint32_t actor, EventType type,
            std::uint32_t period, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0);

  /// Appends one event with an explicit timestamp. Threaded emitters use
  /// this so an event is stamped with the same `now` its payload was
  /// computed from (the audit recomputes time-dependent bounds like A4's
  /// conversion budget from event timestamps, so stamp-at-emit would make
  /// a correct conversion look like a violation). Caller contract: each
  /// (kind, actor) ring has one writer at a time, and that writer passes
  /// non-decreasing timestamps.
  void EmitAt(SimTime time, ActorKind kind, std::uint32_t actor,
              EventType type, std::uint32_t period, std::int64_t a = 0,
              std::int64_t b = 0, std::int64_t c = 0);

  [[nodiscard]] bool detail() const { return options_.detail; }

  /// Installs a streaming consumer invoked with every event right after it
  /// lands in its ring (the SLO watchdog's subscription point). The tap
  /// must not emit trace events or mutate simulation state. At most one
  /// tap; pass nullptr to remove.
  ///
  /// Thread-safe: installation/removal is epoch-protected against
  /// concurrent Emit calls. Emitters count themselves in/out of the tap
  /// critical section; SetTap swaps the tap pointer atomically, then spins
  /// until no emitter is inside before destroying the previous callable,
  /// so a tap is never destroyed under a caller and SetTap(nullptr) only
  /// returns once the old tap can no longer run. Costs one relaxed load
  /// per Emit when unset.
  void SetTap(std::function<void(const TraceEvent&)> tap);

  /// Events ever emitted (including ones already overwritten).
  [[nodiscard]] std::uint64_t TotalEmitted() const {
    return total_emitted_.load(std::memory_order_relaxed);
  }
  /// Events overwritten by ring wrap-around across all actors.
  [[nodiscard]] std::uint64_t TotalDropped() const {
    return total_dropped_.load(std::memory_order_relaxed);
  }

  /// One-shot wrap notification: `fn` runs exactly once, from the first
  /// emitter whose append overwrites a retained event (truncation is no
  /// longer silent — the harness wires this to a watchdog alert and the
  /// trace_dropped_events metric). Install before emitters start; like a
  /// tap, the callback must not emit trace events or mutate run state.
  void SetDropNotify(std::function<void()> fn) {
    drop_notify_ = std::move(fn);
  }

  /// All retained events merged into one deterministic stream, ordered by
  /// (time, actor_kind, actor, seq): one k-way merge of the time-ordered
  /// rings, with no global sort.
  [[nodiscard]] std::vector<TraceEvent> Merged() const;

  /// Retained events of one actor, oldest first.
  [[nodiscard]] std::vector<TraceEvent> ActorEvents(ActorKind kind,
                                                    std::uint32_t actor) const;

  /// Calls `fn(actor, RingSegments)` for every actor of `kind` that has a
  /// ring, in actor order, without copying an event. Like Merged(), needs
  /// quiescent emitters; the segments are valid until the next emit.
  template <typename Fn>
  void ForEachActor(ActorKind kind, Fn&& fn) const {
    const auto& per_kind = rings_[static_cast<std::size_t>(kind)];
    for (std::uint32_t actor = 0; actor < per_kind.size(); ++actor) {
      fn(actor, Segments(per_kind[actor]));
    }
  }

 private:
  struct Ring {
    std::vector<TraceEvent> buf;  // grows to capacity, then wraps
    std::uint64_t appended = 0;   // total ever appended == next seq
  };

  using TapFn = std::function<void(const TraceEvent&)>;

  Ring& RingFor(ActorKind kind, std::uint32_t actor);
  [[nodiscard]] static RingSegments Segments(const Ring& ring);
  void RunTap(const TraceEvent& event);

  sim::Simulator* sim_ = nullptr;  // stamps Emit when no clock_ is set
  ClockFn clock_;                  // external clock (threaded runtime)
  Options options_;
  // Actors are dense small integers per kind (clients 0..63, a handful of
  // nodes), so a vector per kind keeps Emit at two indexed loads. Each ring
  // has a single writer (the simulator thread, or the thread owning that
  // actor under the actor's lock); only the tap and the counters are shared
  // across emitters.
  std::vector<Ring> rings_[kActorKinds];
  std::atomic<TapFn*> tap_{nullptr};
  std::atomic<std::uint64_t> tap_entered_{0};
  std::atomic<std::uint64_t> tap_exited_{0};
  std::atomic<std::uint64_t> total_emitted_{0};
  std::atomic<std::uint64_t> total_dropped_{0};
  std::function<void()> drop_notify_;
  std::atomic<bool> drop_notified_{false};
};

/// The process-active recorder (nullptr when tracing is runtime-disabled).
/// The simulator is single-threaded; experiments install/uninstall
/// sequentially via ScopedRecorder.
[[nodiscard]] Recorder* ActiveRecorder();

/// RAII install of `recorder` as the active one; restores the previous
/// recorder (usually nullptr) on destruction.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder* recorder);
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* previous_;
};

}  // namespace haechi::obs

// Instrumentation macros. Arguments are evaluated only when a recorder is
// active, and not at all when tracing is compiled out.
#if HAECHI_TRACE_ENABLED
#define HAECHI_TRACE_EVENT(kind, actor, type, period, ...)                  \
  do {                                                                      \
    if (::haechi::obs::Recorder* hte_r = ::haechi::obs::ActiveRecorder()) { \
      hte_r->Emit((kind), (actor), (type), (period), ##__VA_ARGS__);        \
    }                                                                       \
  } while (0)
// Data-path variant, additionally gated on the recorder's detail flag.
#define HAECHI_TRACE_DETAIL(kind, actor, type, period, ...)                 \
  do {                                                                      \
    ::haechi::obs::Recorder* hte_r = ::haechi::obs::ActiveRecorder();       \
    if (hte_r != nullptr && hte_r->detail()) {                              \
      hte_r->Emit((kind), (actor), (type), (period), ##__VA_ARGS__);        \
    }                                                                       \
  } while (0)
#else
#define HAECHI_TRACE_EVENT(...) ((void)0)
#define HAECHI_TRACE_DETAIL(...) ((void)0)
#endif
