// The data-node QoS monitor's protocol (paper §II-E), independent of how
// the pool word, the report slots and the control channel are reached.
//
// Responsibilities per QoS period:
//   T1  dispatch fresh reservation tokens to every admitted client and
//       initialise the global pool to C - sum(R_i);
//   S1  wake every check interval and observe the global pool;
//   S2/S3 on the first observed decrease, ask all clients to begin
//       periodic reporting;
//   T2  token conversion: xi_global <- max{C*(T-t)/T - L, 0}, where L is
//       the sum of last-reported residual reservations — reclaiming tokens
//       surrendered by low-demand clients while capping the pool to the
//       capacity remaining in the period;
//   T3  at the period boundary, feed the reported completion total into
//       Algorithm 1 (CapacityEstimator) and flag persistently under-using
//       clients.
// Around them: admission control, report-slot allocation and quarantine,
// the report lease and dead-client reclamation, checkpoints and
// crash/recover reconciliation (DESIGN.md §15), the closed-loop controller
// boundary (DESIGN.md §14), cross-server borrowing, and the exact
// per-period token ledger.
//
// MonitorCore holds every one of those rules exactly once. It touches the
// outside world only through MonitorPort, which two thin adapters derive
// from and implement: core::QosMonitor (simulated verbs: a registered
// control-block MR, optional loopback-CAS observation, ctrl-QP SENDs, sim
// timers) and runtime::ThreadedMonitor (shared atomics over K pool shards,
// direct engine delivery, wall timers, one mutex). Tests drive it through
// a scripted fake port (tests/monitor_core_test.cpp).
//
// The public API is what every monitor offers its users. The protected
// adapter API is for the adapter alone: the core is not thread-safe and
// owns no timers, so the adapter calls StartPeriod() at every period
// boundary and CheckTick() every check interval, serialised (the simulator
// is single-threaded; the threaded adapter holds its mutex).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/admission.hpp"
#include "core/capacity_estimator.hpp"
#include "core/config.hpp"
#include "core/control/controller.hpp"
#include "core/wire.hpp"
#include "obs/trace.hpp"

namespace haechi::core {

/// Everything MonitorCore needs from its transport. The pool is one logical
/// signed word that clients only ever decrease (FAA draws) between monitor
/// touches; a transport may spread it over several physical words (the
/// threaded runtime's shards), in which case every value below is the sum.
///
/// Ledger exactness rests on one contract: each pool operation returns the
/// value it *witnessed* (read, exchanged out, or CAS-confirmed) and the
/// client grants telescoped since the previous pool operation, i.e.
/// (last value written or witnessed) - (value witnessed now). Summed over a
/// period, those grants are exactly the tokens clients drew.
class MonitorPort {
 public:
  struct PoolTouch {
    std::int64_t raw = 0;      // pool value witnessed by this operation
    std::int64_t granted = 0;  // client grants since the previous touch
  };

  /// The adapter's per-client control endpoint (sim: the monitor-side ctrl
  /// QP; threads: the client's engine). Opaque to the core, which only
  /// stores it and hands it back to Deliver; null means "not bound yet".
  using Channel = void*;

  MonitorPort() = default;
  MonitorPort(const MonitorPort&) = delete;
  MonitorPort& operator=(const MonitorPort&) = delete;
  virtual ~MonitorPort() = default;

  /// Protocol time. Must stay constant for the duration of one core call:
  /// conversion budgets and trace stamps are computed from the same value
  /// (the audit recomputes A4 from event timestamps).
  [[nodiscard]] virtual SimTime Now() const = 0;

  [[nodiscard]] virtual std::uint64_t ReadSlot(std::size_t slot) const = 0;
  virtual void PrimeSlot(std::size_t slot, std::uint64_t packed) = 0;

  /// Witnesses the pool without changing it (the check tick's sample).
  virtual PoolTouch SamplePool() = 0;
  /// S1's view of the pool for the reservation-overflow test and the grant
  /// lag. The sampled value itself, unless the transport observes through
  /// the NIC (the simulator's loopback CAS), whose view may lag.
  [[nodiscard]] virtual std::int64_t ObservePool(std::int64_t sampled) {
    return sampled;
  }
  /// Installs `value` unconditionally, witnessing the word it replaced in
  /// the same atomic step (the period boundary; borrow moves).
  virtual PoolTouch ExchangePool(std::int64_t value) = 0;
  /// Installs a converted pool value (T2). The witnessed word is the exact
  /// pre-install value even when client FAAs race the install.
  virtual PoolTouch InstallPool(std::int64_t value) = 0;

  virtual void Deliver(Channel channel, ClientId client,
                       const ControlMsg& msg) = 0;
  virtual void Emit(obs::ActorKind kind, obs::EventType type,
                    std::uint32_t period, std::int64_t a, std::int64_t b,
                    std::int64_t c) = 0;
};

class MonitorCore {
 public:
  /// Report slots (and so concurrently admitted clients) per monitor. The
  /// sim control block and the threaded shared region are both sized from
  /// this.
  static constexpr std::size_t kMaxClients = 64;

  struct Stats {
    std::uint32_t periods = 0;
    std::uint64_t checks = 0;
    std::uint64_t conversions = 0;
    std::uint64_t report_signals = 0;
    std::uint64_t over_reserve_hints = 0;
    std::int64_t last_period_completions = 0;
    /// Clients declared dead by the report lease.
    std::uint64_t lease_expirations = 0;
    /// AdmitClient calls that replaced a still-admitted incarnation of the
    /// same client id (post-restart re-admission handshake).
    std::uint64_t readmissions = 0;
    /// Residual claims reclaimed from dead clients (tokens).
    std::int64_t reclaimed_tokens = 0;
    /// Half-lease ReportRequest retransmissions to silent clients.
    std::uint64_t report_request_resends = 0;
    /// Sharded-pool rebalance passes that moved tokens, and the tokens
    /// moved (threaded runtime only; always 0 with one shard / in the
    /// simulator, which models a single remote word).
    std::uint64_t rebalances = 0;
    std::int64_t rebalanced_tokens = 0;
    /// Cross-server borrowing (cluster deployments): tokens this monitor
    /// lent out of its pool and absorbed into it.
    std::int64_t lent_tokens = 0;
    std::int64_t absorbed_tokens = 0;
    /// Control-plane survivability (DESIGN.md §15): scripted monitor
    /// crashes taken and recoveries completed from the checkpoint.
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
  };

  /// Per-period token ledger, one entry per started period. All fields are
  /// exact (every pool touch witnesses the word), so tests can assert
  /// conservation identities:
  ///   initial_pool + minted + absorbed - granted - lent == end_pool
  ///                                                        (always)
  ///   dispatched + initial_pool == capacity                (when
  ///                                        dispatched <= capacity)
  struct PeriodLedger {
    std::uint32_t period = 0;
    /// Capacity estimate the period was provisioned with (T * C_hat).
    std::int64_t capacity = 0;
    /// Reservation tokens dispatched at T1 (sum of R_i).
    std::int64_t dispatched = 0;
    std::int64_t initial_pool = 0;
    /// Net pool adjustment by token conversion: positive mints recycled
    /// tokens, negative expires them as the period drains.
    std::int64_t minted = 0;
    /// Pool tokens drawn by client FAAs (observed word decreases).
    std::int64_t granted = 0;
    /// Portion of `minted` attributable to dead-client reclamation.
    std::int64_t reclaimed = 0;
    /// Pool word at the period boundary (pre-re-initialisation).
    std::int64_t end_pool = 0;
    /// Cross-server borrow movements (cluster deployments): tokens this
    /// monitor lent to peers and absorbed from peers this period.
    std::int64_t lent = 0;
    std::int64_t absorbed = 0;
    /// The monitor crashed inside this period: the entry never closed
    /// (no period-end emit, end_pool left at its creation value) and the
    /// conservation identities deliberately do not apply to it.
    bool crashed = false;
  };

  /// Per-period telemetry hook, fired at each boundary after calibration:
  /// (period index just ended, total reported completions, capacity
  /// estimate for the next period).
  using PeriodHook =
      std::function<void(std::uint32_t, std::int64_t, std::int64_t)>;

  /// Removes a client and releases its reservation.
  Status ReleaseClient(ClientId client);

  /// Changes an admitted client's reservation, enforcing both capacity
  /// constraints. Takes effect at the next period boundary (tokens already
  /// dispatched are never clawed back mid-period). Used by the
  /// multi-data-node coordinator and the closed-loop controller.
  Status UpdateReservation(ClientId client, std::int64_t reservation);

  /// The reservation currently configured for a client.
  [[nodiscard]] Result<std::int64_t> ReservationOf(ClientId client) const;

  /// Cross-server borrowing (cluster coordinator only). LendTokens drains
  /// up to `want` tokens from the pool — never below zero — and returns the
  /// amount actually removed; AbsorbTokens credits tokens borrowed from
  /// peer node `peer`. Both are exact ledger movements (`lent`/`absorbed`),
  /// and the running net credit feeds token conversion so a conversion
  /// pass neither re-mints lent tokens nor clobbers absorbed ones. Only
  /// simulated cluster deployments borrow, so nothing races the sample
  /// and the exchange a move is made of.
  [[nodiscard]] std::int64_t LendTokens(std::int64_t want, std::uint32_t peer);
  void AbsorbTokens(std::int64_t tokens, std::uint32_t peer);

  /// True when `client`'s report slot holds a report written this period
  /// (as opposed to the boundary prime or a stale cross-boundary write).
  /// The cluster coordinator uses this to skip rebalancing on nodes whose
  /// report went missing for the period.
  [[nodiscard]] bool HasFreshReport(ClientId client) const;

  [[nodiscard]] bool Crashed() const { return crashed_; }

  /// Index of the current QoS period (0 before the first boundary).
  [[nodiscard]] std::uint32_t CurrentPeriod() const { return stats_.periods; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }
  [[nodiscard]] const CapacityEstimator& estimator() const {
    return *estimator_;
  }
  /// Tokens the pool started this period with.
  [[nodiscard]] std::int64_t InitialPool() const { return initial_pool_; }
  /// Capacity (tokens) allocated for the current period.
  [[nodiscard]] std::int64_t PeriodCapacity() const { return period_capacity_; }
  [[nodiscard]] bool ReportingActive() const { return reporting_active_; }

  /// Last values read from a client's report slot.
  [[nodiscard]] std::uint32_t LastResidual(ClientId client) const;
  [[nodiscard]] std::uint32_t LastCompleted(ClientId client) const;

  /// Per-period token ledger (one entry per started period, oldest first;
  /// the newest entry is still accumulating until its boundary).
  [[nodiscard]] const std::vector<PeriodLedger>& ledger() const {
    return ledger_;
  }

  /// Invoked when a client under-uses its reservation for
  /// `underuse_alert_periods` consecutive periods.
  void SetOverReserveCallback(std::function<void(ClientId)> fn) {
    over_reserve_cb_ = std::move(fn);
  }

  /// Invoked after the report lease declares a client dead and its
  /// reservation has been released (admission slot already freed).
  void SetClientDeadCallback(std::function<void(ClientId)> fn) {
    client_dead_cb_ = std::move(fn);
  }

  void SetPeriodHook(PeriodHook fn) { period_hook_ = std::move(fn); }

  /// Wires the closed-loop controller (DESIGN.md §14); null unwires. At
  /// every boundary — after the period-end emit settled the watchdog's
  /// verdicts — the monitor hands the controller a per-client view,
  /// applies the returned plan (reservation resizes, eta damping, forced
  /// conversion) and emits one kControlAction per applied action.
  /// `readmit` (optional) is invoked for kReadmit actions; the harness owns
  /// re-admission and must defer actual re-wiring off this call stack.
  void SetController(control::QosController* controller,
                     std::function<void(ClientId)> readmit) {
    controller_ = controller;
    readmit_cb_ = std::move(readmit);
  }

 protected:
  /// Capacities in IOPS, as profiled (Experiment Set 1). The core keeps a
  /// reference to `port`; it never calls it from the constructor.
  MonitorCore(MonitorPort& port, const QosConfig& config,
              double profiled_global_iops, double profiled_local_iops);

  MonitorCore(const MonitorCore&) = delete;
  MonitorCore& operator=(const MonitorCore&) = delete;
  ~MonitorCore() = default;

  /// Admits a client (both capacity constraints enforced), allocates and
  /// primes its report slot, and returns the slot index. `channel` may be
  /// null and bound later with BindChannel.
  Result<std::size_t> AdmitClient(ClientId client, std::int64_t reservation,
                                  std::int64_t limit,
                                  MonitorPort::Channel channel);
  /// Binds (or re-binds) an admitted client's control channel.
  Status BindChannel(ClientId client, MonitorPort::Channel channel);

  /// The period boundary: closes the ended period (calibration, ledger,
  /// controller) and provisions and dispatches the next one (T1).
  void StartPeriod();
  /// One S1 check: ledger sample, S2, report lease, T2.
  void CheckTick();

  /// Control-plane survivability (DESIGN.md §15). Crash() models the
  /// monitor process dying: the live client table is lost (the control
  /// region — pool, report slots, channels — and the in-region checkpoint
  /// survive). Returns false when already crashed. Recover() rebuilds
  /// provisioning state from the last checkpoint, reconciles it against
  /// the live report slots, sends a RecoverySync handshake to every
  /// restored client and provisions a fresh period — without closing the
  /// crashed period's ledger (it stays UNCLOSED; identities skip it).
  bool Crash();
  void Recover();

  /// Records a transport-side pool move between physical words (the
  /// threaded runtime's shard rebalance): sum-neutral, except for the
  /// client grants the move witnessed on its way. Only after the first
  /// period has started.
  void RecordRebalance(std::int64_t granted, std::int64_t moved);

  [[nodiscard]] const QosConfig& config() const { return config_; }

 private:
  /// Epoch-stamped provisioning snapshot a restarted monitor recovers from
  /// (DESIGN.md §15). Conceptually lives in the registered control region:
  /// it survives a monitor *process* crash exactly because the region (pool
  /// word, report slots) does, and so do the control channels.
  struct Checkpoint {
    struct Client {
      ClientId id{};
      std::int64_t reservation = 0;
      std::int64_t limit = 0;
      std::size_t slot = 0;
      MonitorPort::Channel channel = nullptr;
    };
    bool valid = false;
    std::uint32_t epoch = 0;  // period the snapshot was taken at
    std::int64_t reservation_sum = 0;
    std::int64_t pool_word = 0;  // initial pool the epoch was provisioned with
    std::vector<Client> clients;
  };

  struct ClientEntry {
    ClientId id;
    std::int64_t reservation = 0;
    std::int64_t limit = 0;
    MonitorPort::Channel channel = nullptr;
    std::size_t slot = 0;  // index into the report-slot array
    std::uint32_t underuse_streak = 0;
    // Report-lease state: raw slot bytes at the last check and the number
    // of consecutive checks they stayed identical (the report seq field
    // guarantees a live client changes them every report_interval).
    std::uint64_t last_slot_raw = 0;
    std::uint32_t lease_misses = 0;
    // Slot bytes as primed at the period boundary; a slot equal to its
    // prime has not received a real report this period.
    std::uint64_t primed_slot_raw = 0;
  };

  void CaptureCheckpoint();
  void RunControlBoundary();
  void ActivateReporting(std::int64_t observed_pool);
  void CheckLeases();
  void DeclareDead(ClientId client);
  void ConvertTokens();
  void Calibrate();
  /// Installs `raw + delta` (a borrow move witnessed at `raw`) and books it
  /// as lent (delta < 0) or absorbed.
  void MoveBorrowed(std::int64_t raw, std::int64_t delta, std::uint32_t peer);
  /// Primes `entry`'s slot with a conservative report tagged `period` (the
  /// full reservation still outstanding, nothing completed) and
  /// re-baselines its lease on those bytes.
  void PrimeSlot(ClientEntry& entry, std::uint32_t period);
  /// True when a packed report carries the current period's tag (written
  /// or primed this period, not in flight across the boundary).
  [[nodiscard]] bool ThisPeriod(std::uint64_t report) const {
    return ReportPeriod(report) == (stats_.periods & kReportPeriodMask);
  }
  void Send(const ClientEntry& entry, const ControlMsg& msg);
  void Emit(obs::EventType type, std::int64_t a = 0, std::int64_t b = 0,
            std::int64_t c = 0);
  [[nodiscard]] std::size_t AllocateSlot();
  /// Drops `entry` from the client table and quarantines its slot.
  void Retire(const ClientEntry& entry);
  /// The raw report slot of an admitted client.
  [[nodiscard]] std::uint64_t SlotOf(ClientId client) const;
  [[nodiscard]] ClientEntry* FindClient(ClientId client);
  [[nodiscard]] const ClientEntry* FindClient(ClientId client) const;

  MonitorPort& port_;
  QosConfig config_;
  AdmissionController admission_;
  std::unique_ptr<CapacityEstimator> estimator_;

  std::vector<ClientEntry> clients_;
  std::size_t next_slot_ = 0;  // high-water mark of the slot array
  // Slots of released/dead clients are quarantined until the next period
  // boundary (any in-flight stale WRITE to them lands within the current
  // period) and only then become reusable — without reuse, kMaxClients
  // crash/restart cycles would exhaust the slot array for good.
  std::vector<std::size_t> retired_slots_;
  std::vector<std::size_t> free_slots_;
  Stats stats_;
  // Survivability state: the last provisioning checkpoint, whether the
  // monitor is currently crashed, the clients that were live at crash time
  // ("wreckage": id + slot — reconciled against the checkpoint on
  // recovery), and a one-boundary latch that makes the first StartPeriod
  // after recovery skip everything that assumes a period actually ran
  // (ledger close, calibration, control boundary, slot recycling).
  Checkpoint checkpoint_;
  bool crashed_ = false;
  bool recovered_pending_ = false;
  std::vector<std::pair<ClientId, std::size_t>> wreckage_;
  // Net cross-server borrow movement this period (absorbed - lent); token
  // conversion adds it to the pool target so borrowing survives the next
  // conversion overwrite. Reset at every period boundary; always 0 outside
  // cluster deployments.
  std::int64_t borrow_credit_ = 0;
  SimTime period_start_time_ = 0;
  std::int64_t period_capacity_ = 0;
  std::int64_t initial_pool_ = 0;
  bool reporting_active_ = false;
  // Grant tracking: the pool word only decreases between monitor writes
  // (client FAAs), so (last written - observed) measures tokens handed out.
  // Recent grants are not yet visible in client reports (reporting lag),
  // and token conversion must not re-mint them.
  std::int64_t last_written_pool_ = 0;
  std::deque<std::int64_t> recent_grants_;
  std::vector<PeriodLedger> ledger_;
  // Completion counts salvaged from clients that died mid-period; folded
  // into Calibrate's total so capacity estimation does not see a phantom
  // capacity drop.
  std::int64_t dead_completed_this_period_ = 0;
  std::function<void(ClientId)> over_reserve_cb_;
  std::function<void(ClientId)> client_dead_cb_;
  PeriodHook period_hook_;
  control::QosController* controller_ = nullptr;
  std::function<void(ClientId)> readmit_cb_;
  // Latched by a kForceConversion action: every subsequent period starts
  // with reporting active instead of waiting for S2 (which can never fire
  // when the initial pool is zero — the W6 starvation deadlock).
  bool force_reporting_ = false;
};

}  // namespace haechi::core
