#include "core/monitor_core.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace haechi::core {

namespace {

std::int64_t IopsToTokens(double iops, SimDuration period) {
  return static_cast<std::int64_t>(std::llround(iops * ToSeconds(period)));
}

}  // namespace

MonitorCore::MonitorCore(MonitorPort& port, const QosConfig& config,
                         double profiled_global_iops,
                         double profiled_local_iops)
    : port_(port),
      config_(config),
      admission_(IopsToTokens(profiled_global_iops, config.period),
                 IopsToTokens(profiled_local_iops, config.period)) {
  const std::int64_t profiled_tokens =
      IopsToTokens(profiled_global_iops, config.period);
  CapacityEstimator::Params params;
  params.profiled = profiled_tokens;
  params.sigma =
      config.sigma > 0
          ? config.sigma
          : static_cast<std::int64_t>(std::llround(
                static_cast<double>(profiled_tokens) * config.sigma_fraction));
  params.eta = config.eta > 0
                   ? config.eta
                   : static_cast<std::int64_t>(std::llround(
                         static_cast<double>(profiled_tokens) *
                         config.eta_fraction));
  params.window = config.history_window;
  estimator_ = std::make_unique<CapacityEstimator>(params);
}

void MonitorCore::Emit(obs::EventType type, std::int64_t a, std::int64_t b,
                       std::int64_t c) {
  port_.Emit(obs::ActorKind::kMonitor, type, stats_.periods, a, b, c);
}

void MonitorCore::Send(const ClientEntry& entry, const ControlMsg& msg) {
  if (entry.channel != nullptr) port_.Deliver(entry.channel, entry.id, msg);
}

void MonitorCore::PrimeSlot(ClientEntry& entry, std::uint32_t period) {
  port_.PrimeSlot(entry.slot,
                  PackReport(period,
                             static_cast<std::uint64_t>(
                                 std::max<std::int64_t>(entry.reservation, 0)),
                             0));
  entry.last_slot_raw = port_.ReadSlot(entry.slot);
  entry.primed_slot_raw = entry.last_slot_raw;
  entry.lease_misses = 0;
}

Result<std::size_t> MonitorCore::AdmitClient(ClientId client,
                                             std::int64_t reservation,
                                             std::int64_t limit,
                                             MonitorPort::Channel channel) {
  bool readmission = false;
  if (FindClient(client) != nullptr) {
    // Re-admission handshake: a restarted client admits under its old id
    // before the report lease caught its previous incarnation. Retire the
    // stale entry first so neither its admission slot nor its report slot
    // leaks.
    const Status released = ReleaseClient(client);
    HAECHI_ASSERT(released.ok());
    ++stats_.readmissions;
    readmission = true;
  }
  if (clients_.size() >= kMaxClients) {
    return ErrResourceExhausted("monitor is at its client capacity");
  }
  if (limit > 0 && limit < reservation) {
    return ErrInvalidArgument("limit below reservation");
  }
  if (free_slots_.empty() && next_slot_ >= kMaxClients) {
    return ErrResourceExhausted("all report slots consumed");
  }
  if (auto s = admission_.Admit(client, reservation); !s.ok()) {
    Emit(obs::EventType::kAdmitReject, static_cast<std::int64_t>(Raw(client)),
         reservation);
    return s;
  }
  Emit(readmission ? obs::EventType::kReadmit : obs::EventType::kAdmit,
       static_cast<std::int64_t>(Raw(client)), reservation, limit);

  ClientEntry entry;
  entry.id = client;
  entry.reservation = reservation;
  entry.limit = limit;
  entry.channel = channel;
  entry.slot = AllocateSlot();
  // Prime the (possibly recycled) slot with a stale-tagged conservative
  // report so leftover bytes from a previous occupant cannot be read as
  // this client's data, then baseline the lease on those bytes.
  PrimeSlot(entry, stats_.periods - 1);
  clients_.push_back(entry);
  if (reporting_active_) {
    // The period's ReportRequest broadcast predates this client; ask it
    // directly, or its silent slot would trip the report lease.
    Send(entry, ReportRequestMsg{.period = stats_.periods});
  }
  return entry.slot;
}

Status MonitorCore::BindChannel(ClientId client,
                                MonitorPort::Channel channel) {
  ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return ErrNotFound("client not admitted");
  entry->channel = channel;
  // A client admitted unbound missed any ReportRequest already broadcast.
  if (reporting_active_) {
    Send(*entry, ReportRequestMsg{.period = stats_.periods});
  }
  return Status::Ok();
}

Status MonitorCore::ReleaseClient(ClientId client) {
  const ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return ErrNotFound("client not admitted");
  Retire(*entry);
  Emit(obs::EventType::kRelease, static_cast<std::int64_t>(Raw(client)));
  return admission_.Release(client);
}

void MonitorCore::Retire(const ClientEntry& entry) {
  // Quarantine the slot until the next period boundary: a report WRITE the
  // departing client already has in flight must not land in a stranger's
  // recycled slot. Live slots are never compacted (address stability).
  retired_slots_.push_back(entry.slot);
  clients_.erase(clients_.begin() + (&entry - clients_.data()));
}

std::size_t MonitorCore::AllocateSlot() {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  return next_slot_++;
}

Status MonitorCore::UpdateReservation(ClientId client,
                                      std::int64_t reservation) {
  ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return ErrNotFound("client not admitted");
  if (entry->limit > 0 && reservation > entry->limit) {
    return ErrInvalidArgument("reservation above the client's limit");
  }
  if (auto s = admission_.Update(client, reservation); !s.ok()) return s;
  const std::int64_t previous = entry->reservation;
  entry->reservation = reservation;
  Emit(obs::EventType::kReservationUpdate,
       static_cast<std::int64_t>(Raw(client)), reservation, previous);
  return Status::Ok();
}

std::int64_t MonitorCore::LendTokens(std::int64_t want, std::uint32_t peer) {
  if (want <= 0 || stats_.periods == 0) return 0;
  const MonitorPort::PoolTouch seen = port_.SamplePool();
  ledger_.back().granted += seen.granted;
  const std::int64_t lent = std::min(want, std::max<std::int64_t>(seen.raw, 0));
  if (lent <= 0) return 0;
  MoveBorrowed(seen.raw, -lent, peer);
  return lent;
}

void MonitorCore::AbsorbTokens(std::int64_t tokens, std::uint32_t peer) {
  if (tokens <= 0 || stats_.periods == 0) return;
  const MonitorPort::PoolTouch seen = port_.SamplePool();
  ledger_.back().granted += seen.granted;
  MoveBorrowed(seen.raw, tokens, peer);
}

void MonitorCore::MoveBorrowed(std::int64_t raw, std::int64_t delta,
                               std::uint32_t peer) {
  // The move is its own ledger line (`lent`/`absorbed`), not a grant; only
  // pool movement the exchange witnesses counts as client grants.
  const std::int64_t after = raw + delta;
  PeriodLedger& cur = ledger_.back();
  cur.granted += port_.ExchangePool(after).granted;
  if (delta < 0) {
    cur.lent -= delta;
    stats_.lent_tokens -= delta;
  } else {
    cur.absorbed += delta;
    stats_.absorbed_tokens += delta;
  }
  last_written_pool_ = after;
  borrow_credit_ += delta;
  Emit(delta < 0 ? obs::EventType::kPoolBorrowOut
                 : obs::EventType::kPoolBorrowIn,
       raw, after, static_cast<std::int64_t>(peer));
}

void MonitorCore::RecordRebalance(std::int64_t granted, std::int64_t moved) {
  ledger_.back().granted += granted;
  if (moved <= 0) return;
  ++stats_.rebalances;
  stats_.rebalanced_tokens += moved;
}

bool MonitorCore::HasFreshReport(ClientId client) const {
  const ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return false;
  const std::uint64_t raw = port_.ReadSlot(entry->slot);
  return ThisPeriod(raw) && raw != entry->primed_slot_raw;
}

Result<std::int64_t> MonitorCore::ReservationOf(ClientId client) const {
  const ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return ErrNotFound("client not admitted");
  return entry->reservation;
}

void MonitorCore::StartPeriod() {
  // The first boundary after a recovery provisions fresh state only: the
  // crashed period never completed, so there is nothing to calibrate, no
  // ledger to close (the crashed entry stays UNCLOSED — no period-end
  // emit), no settled watchdog verdicts for the controller to act on, and
  // slots retired during recovery reconciliation have not yet sat out a
  // full boundary (stale in-flight WRITEs may still land in them).
  const bool recovering = recovered_pending_;
  recovered_pending_ = false;
  if (stats_.periods > 0 && !recovering) Calibrate();
  dead_completed_this_period_ = 0;

  // Provision the next period *before* touching the pool, so the boundary
  // itself is one exchange: the old period's final word is witnessed and
  // the new period's pool installed in one step — a client FAA lands
  // before or after the boundary but is never silently overwritten.
  const std::int64_t next_capacity = estimator_->Estimate();
  std::int64_t total_reserved = 0;
  for (const auto& entry : clients_) total_reserved += entry.reservation;
  const std::int64_t next_initial =
      std::max<std::int64_t>(next_capacity - total_reserved, 0);
  const MonitorPort::PoolTouch boundary = port_.ExchangePool(next_initial);

  // Close the ledger of the period that just ended: attribute the final
  // pool movement to grants and snapshot the boundary value.
  if (!ledger_.empty() && !recovering) {
    PeriodLedger& prev = ledger_.back();
    prev.granted += boundary.granted;
    prev.end_pool = boundary.raw;
    Emit(obs::EventType::kMonitorPeriodEnd, boundary.raw,
         stats_.last_period_completions, prev.granted);
  }

  // Closed-loop control boundary: the period-end emit above just ran the
  // recorder tap, so the watchdog's verdicts for the ended period are
  // settled. Resizes are sum-neutral on total_reserved, so the pool already
  // installed stays valid, and eta damping only shapes later estimates;
  // the T1 dispatch below reads the updated reservations.
  if (controller_ != nullptr && stats_.periods > 0 && !recovering) {
    RunControlBoundary();
  }

  // Slots retired last period sat out a full boundary; any stale in-flight
  // WRITE to them has long landed, so they are safe to recycle.
  if (!recovering) {
    free_slots_.insert(free_slots_.end(), retired_slots_.begin(),
                       retired_slots_.end());
    retired_slots_.clear();
  }

  ++stats_.periods;
  period_start_time_ = port_.Now();
  reporting_active_ = false;
  borrow_credit_ = 0;
  period_capacity_ = next_capacity;
  initial_pool_ = next_initial;
  last_written_pool_ = initial_pool_;
  recent_grants_.clear();

  PeriodLedger ledger;
  ledger.period = stats_.periods;
  ledger.capacity = period_capacity_;
  ledger.dispatched = total_reserved;
  ledger.initial_pool = initial_pool_;
  ledger.end_pool = initial_pool_;
  ledger_.push_back(ledger);
  Emit(obs::EventType::kMonitorPeriodStart, period_capacity_, total_reserved,
       initial_pool_);
  // Bound memory on endless runs; tests look at recent periods only.
  if (ledger_.size() > 4096) ledger_.erase(ledger_.begin());

  // Step T1: push fresh reservation tokens; the message is also the
  // period-start signal. Report slots are primed with the full residual so
  // token conversion is conservative until the first real report lands,
  // and the prime re-baselines the lease: every client gets a fresh k-check
  // allowance each period.
  for (auto& entry : clients_) {
    PrimeSlot(entry, stats_.periods);
    Send(entry, PeriodStartMsg{.period = stats_.periods,
                               .reservation_tokens = entry.reservation,
                               .limit = entry.limit});
  }

  // Forced early conversion (controller kForceConversion): activate
  // reporting at the period start instead of waiting for S2 — with a zero
  // initial pool the word can never be observed to decrease, so S2 alone
  // would leave conversion off and pool-dependent clients starved (W6).
  if (force_reporting_ && !reporting_active_) ActivateReporting(initial_pool_);

  if (config_.checkpoint_every_periods > 0 &&
      stats_.periods % config_.checkpoint_every_periods == 0) {
    CaptureCheckpoint();
  }
}

void MonitorCore::CaptureCheckpoint() {
  checkpoint_.valid = true;
  checkpoint_.epoch = stats_.periods;
  checkpoint_.pool_word = initial_pool_;
  checkpoint_.reservation_sum = 0;
  checkpoint_.clients.clear();
  for (const auto& entry : clients_) {
    checkpoint_.clients.push_back({entry.id, entry.reservation, entry.limit,
                                   entry.slot, entry.channel});
    checkpoint_.reservation_sum += entry.reservation;
  }
  Emit(obs::EventType::kMonitorCheckpoint,
       static_cast<std::int64_t>(checkpoint_.epoch),
       checkpoint_.reservation_sum, checkpoint_.pool_word);
}

bool MonitorCore::Crash() {
  if (crashed_) return false;
  crashed_ = true;
  ++stats_.crashes;
  if (!ledger_.empty()) ledger_.back().crashed = true;
  // The in-memory client table dies with the process; the control region
  // (pool, report slots, checkpoint) survives. Keep only the wreckage
  // (id + slot) recovery reconciles against. Admission state is
  // conceptually part of the region and is reconciled too.
  wreckage_.clear();
  for (const auto& entry : clients_) wreckage_.emplace_back(entry.id, entry.slot);
  clients_.clear();
  HAECHI_LOG_WARN("monitor: control plane crashed in period %u",
                  stats_.periods);
  Emit(obs::EventType::kMonitorCrash);
  return true;
}

void MonitorCore::Recover() {
  HAECHI_EXPECTS(crashed_);
  crashed_ = false;
  ++stats_.recoveries;

  // Reconcile the checkpoint against the wreckage: a client admitted after
  // the last checkpoint is unknown to the restarted monitor — its admission
  // is released and its slot retired (it re-admits through the normal
  // handshake). A checkpointed client that departed before the crash is
  // not in the wreckage and must not be resurrected.
  std::uint32_t reconciled = 0;
  for (const auto& [id, slot] : wreckage_) {
    const bool checkpointed =
        checkpoint_.valid &&
        std::any_of(checkpoint_.clients.begin(), checkpoint_.clients.end(),
                    [id = id](const Checkpoint::Client& c) {
                      return c.id == id;
                    });
    if (checkpointed) continue;
    const Status released = admission_.Release(id);
    HAECHI_ASSERT(released.ok());
    retired_slots_.push_back(slot);
  }
  if (checkpoint_.valid) {
    for (const auto& c : checkpoint_.clients) {
      const bool live =
          std::any_of(wreckage_.begin(), wreckage_.end(),
                      [&](const auto& w) { return w.first == c.id; });
      if (!live) continue;
      ClientEntry entry;
      entry.id = c.id;
      entry.reservation = c.reservation;
      entry.limit = c.limit;
      entry.channel = c.channel;
      entry.slot = c.slot;
      // Live-slot reconciliation: adopt whatever the client wrote while
      // the monitor was down as the lease baseline, and count slots whose
      // period tag proves a report landed since the checkpoint.
      entry.last_slot_raw = port_.ReadSlot(c.slot);
      entry.primed_slot_raw = entry.last_slot_raw;
      if (ReportPeriod(entry.last_slot_raw) ==
          (checkpoint_.epoch & kReportPeriodMask)) {
        ++reconciled;
      }
      clients_.push_back(entry);
      // Realign admission with the restored reservation (a resize may
      // have happened between the checkpoint and the crash).
      const Status synced = admission_.Update(c.id, c.reservation);
      HAECHI_ASSERT(synced.ok());
    }
  }
  wreckage_.clear();
  HAECHI_LOG_WARN(
      "monitor: recovered from checkpoint epoch %u (%zu clients, %lld "
      "reserved)",
      checkpoint_.epoch, clients_.size(),
      static_cast<long long>(checkpoint_.reservation_sum));
  Emit(obs::EventType::kMonitorRecover,
       static_cast<std::int64_t>(checkpoint_.valid ? checkpoint_.epoch : 0),
       checkpoint_.valid ? checkpoint_.reservation_sum : 0,
       static_cast<std::int64_t>(reconciled));

  // Recovery handshake: every restored client proves liveness with an
  // immediate report write before boundary sweeps resume.
  for (const auto& entry : clients_) {
    Send(entry, RecoverySyncMsg{.period = checkpoint_.epoch});
  }

  recovered_pending_ = true;
  StartPeriod();
}

void MonitorCore::ActivateReporting(std::int64_t observed_pool) {
  reporting_active_ = true;
  ++stats_.report_signals;
  Emit(obs::EventType::kReportSignal, observed_pool, initial_pool_);
  for (const auto& entry : clients_) {
    Send(entry, ReportRequestMsg{.period = stats_.periods});
  }
}

void MonitorCore::RunControlBoundary() {
  // The view: reservations as configured, completions as reported for the
  // period that just ended (slots still hold the final reports here — they
  // are re-primed only when the next period is dispatched).
  std::vector<control::QosController::ClientView> view;
  view.reserve(clients_.size());
  for (const auto& entry : clients_) {
    std::int64_t completed = 0;
    const std::uint64_t slot = port_.ReadSlot(entry.slot);
    if (ThisPeriod(slot)) {
      completed = static_cast<std::int64_t>(ReportCompleted(slot));
    }
    // The admissible region caps the planning limit: a receiver can never
    // be grown past the per-client local capacity, so every planned resize
    // passes admission_.Update and the emitted deltas stay sum-neutral.
    const std::int64_t local = admission_.LocalCapacity();
    const std::int64_t plan_limit =
        entry.limit > 0 ? std::min(entry.limit, local) : local;
    view.push_back({Raw(entry.id), entry.reservation, plan_limit, completed});
  }
  std::sort(view.begin(), view.end(),
            [](const control::QosController::ClientView& x,
               const control::QosController::ClientView& y) {
              return x.client < y.client;
            });

  const control::QosController::Boundary plan =
      controller_->PlanBoundary(stats_.periods, view);
  for (const auto& r : plan.recovered) {
    port_.Emit(obs::ActorKind::kController, obs::EventType::kControlRecovered,
               stats_.periods, static_cast<std::int64_t>(r.rule), r.client,
               static_cast<std::int64_t>(r.periods));
  }
  for (const auto& action : plan.actions) {
    bool applied = false;
    std::int64_t payload = action.value;
    switch (action.kind) {
      case control::ActionKind::kResize: {
        const Status s = UpdateReservation(
            MakeClientId(static_cast<std::uint32_t>(action.client)),
            action.value);
        if (!s.ok()) {
          HAECHI_LOG_WARN("controller: resize of client %lld failed: %s",
                          static_cast<long long>(action.client),
                          s.ToString().c_str());
        }
        applied = s.ok();
        payload = action.delta;
        break;
      }
      case control::ActionKind::kScaleEta:
        estimator_->SetEtaScaleMilli(action.value);
        applied = true;
        break;
      case control::ActionKind::kForceConversion:
        force_reporting_ = true;
        applied = true;
        break;
      case control::ActionKind::kReadmit:
        if (readmit_cb_) {
          readmit_cb_(MakeClientId(static_cast<std::uint32_t>(action.client)));
          applied = true;
        }
        break;
    }
    if (applied) {
      port_.Emit(obs::ActorKind::kController, obs::EventType::kControlAction,
                 stats_.periods, static_cast<std::int64_t>(action.kind),
                 action.client, payload);
    }
  }
}

void MonitorCore::CheckTick() {
  if (stats_.periods == 0) return;
  ++stats_.checks;

  // Ledger grant sampling witnesses the pool itself (exact even when S1
  // observes through a lagging NIC view).
  const MonitorPort::PoolTouch sample = port_.SamplePool();
  ledger_.back().granted += sample.granted;
  Emit(obs::EventType::kPoolSample, sample.raw);
  const std::int64_t observed_now = port_.ObservePool(sample.raw);

  // Tokens granted since the last check: the word only moves down between
  // monitor writes, and a draw against an empty pool grants nothing.
  const std::int64_t grants =
      std::max<std::int64_t>(last_written_pool_, 0) -
      std::max<std::int64_t>(observed_now, 0);
  recent_grants_.push_back(std::max<std::int64_t>(grants, 0));
  // Lag window: a report in flight can be ~report_interval + transit old;
  // keep enough intervals to cover it (+1 for safety).
  const std::size_t lag_checks =
      static_cast<std::size_t>(config_.report_interval /
                               std::max<SimDuration>(config_.check_interval,
                                                     1)) +
      2;
  while (recent_grants_.size() > lag_checks) recent_grants_.pop_front();
  last_written_pool_ = observed_now;

  // Step S2: reservation-token overflow — someone is drawing on the pool.
  if (!reporting_active_ && observed_now < initial_pool_) {
    ActivateReporting(observed_now);
  }

  // Report lease: only meaningful once clients were asked to report.
  if (reporting_active_ && config_.report_lease_intervals > 0) CheckLeases();

  // Step T2: token conversion.
  if (reporting_active_ && config_.token_conversion) ConvertTokens();
}

void MonitorCore::CheckLeases() {
  // Two-phase: collect expirations first, then declare — DeclareDead
  // erases from clients_ and must not run under this iteration.
  std::vector<ClientId> dead;
  for (ClientEntry& entry : clients_) {
    const std::uint64_t raw = port_.ReadSlot(entry.slot);
    if (raw != entry.last_slot_raw) {
      entry.last_slot_raw = raw;
      entry.lease_misses = 0;
      continue;
    }
    ++entry.lease_misses;
    if (entry.lease_misses ==
        std::max<std::uint32_t>(config_.report_lease_intervals / 2, 1)) {
      // Half-lease nudge: the ReportRequest SEND itself may have been
      // lost; a live client answers this within one report interval.
      ++stats_.report_request_resends;
      Emit(obs::EventType::kReportResend,
           static_cast<std::int64_t>(Raw(entry.id)));
      Send(entry, ReportRequestMsg{.period = stats_.periods});
    }
    if (entry.lease_misses >= config_.report_lease_intervals) {
      dead.push_back(entry.id);
    }
  }
  for (const ClientId id : dead) DeclareDead(id);
}

void MonitorCore::DeclareDead(ClientId client) {
  const ClientEntry* entry = FindClient(client);
  if (entry == nullptr) return;
  // Unreported residual: the client's own last word if it reported this
  // period, else the full reservation it was dispatched.
  const std::uint64_t slot = port_.ReadSlot(entry->slot);
  std::int64_t residual;
  std::int64_t salvaged = 0;
  if (ThisPeriod(slot)) {
    residual = static_cast<std::int64_t>(ReportResidual(slot));
    salvaged = static_cast<std::int64_t>(ReportCompleted(slot));
    dead_completed_this_period_ += salvaged;
  } else {
    residual = std::max<std::int64_t>(entry->reservation, 0);
  }
  HAECHI_LOG_WARN(
      "monitor: client %u report lease expired after %u checks; reclaiming "
      "%lld residual tokens",
      Raw(client), entry->lease_misses, static_cast<long long>(residual));
  ++stats_.lease_expirations;
  Emit(obs::EventType::kLeaseExpire, static_cast<std::int64_t>(Raw(client)),
       residual, salvaged);
  stats_.reclaimed_tokens += residual;
  ledger_.back().reclaimed += residual;
  Retire(*entry);
  const Status released = admission_.Release(client);
  HAECHI_ASSERT(released.ok());
  // Work conservation: realise the reclaimed residual in the pool now —
  // the dead client no longer contributes to L, so conversion re-mints
  // its surrendered claims for everyone else.
  if (config_.token_conversion && reporting_active_) ConvertTokens();
  if (client_dead_cb_) client_dead_cb_(client);
}

void MonitorCore::ConvertTokens() {
  std::int64_t outstanding_reservation = 0;  // the paper's L
  // Dead clients' salvaged completions still count against this period's
  // completion budget.
  std::int64_t completed_so_far = dead_completed_this_period_;
  for (const auto& entry : clients_) {
    const std::uint64_t slot = port_.ReadSlot(entry.slot);
    if (ThisPeriod(slot)) {
      outstanding_reservation += ReportResidual(slot);
      completed_so_far += ReportCompleted(slot);
    } else {
      // Stale (in-flight across the boundary) or missing report: assume
      // the full reservation is still outstanding — conservative, like the
      // slot prime it replaced.
      outstanding_reservation += entry.reservation;
    }
  }
  const SimDuration elapsed = port_.Now() - period_start_time_;
  const SimDuration left =
      std::max<SimDuration>(config_.period - elapsed, 0);
  // Remaining capacity is the smaller of the paper's time-based budget
  // C*(T-t)/T and the completion-based budget C - U(t). The time budget
  // throttles the pool when the node under-delivers (over-estimated
  // capacity, Fig 16); the completion budget makes conversion strictly
  // token-conserving — it can recycle surrendered reservations but never
  // mint tokens beyond the period's capacity estimate, which preserves the
  // exact U == Omega underestimation signal Algorithm 1's recovery rests
  // on (Fig 18). (128-bit intermediate: tokens * ns overflows 64 bits.)
  const auto time_budget = static_cast<std::int64_t>(
      static_cast<__int128>(period_capacity_) * left / config_.period);
  const std::int64_t completion_budget =
      period_capacity_ - completed_so_far;
  const std::int64_t remaining_capacity =
      std::min(time_budget, completion_budget);
  // Grants from the last few checks are invisible in the (lagged) reports;
  // without this correction the conversion would re-mint them every check.
  std::int64_t unreported_grants = 0;
  for (const std::int64_t g : recent_grants_) unreported_grants += g;
  // borrow_credit_ (absorbed - lent this period) shifts the target so a
  // conversion pass neither clobbers tokens a peer transferred in nor
  // re-mints tokens this node lent out.
  const std::int64_t new_pool = std::max<std::int64_t>(
      remaining_capacity - outstanding_reservation - unreported_grants +
          borrow_credit_,
      0);
  // Attribute pool movement since the last touch to grants, and the
  // overwrite itself to minting (negative when conversion shrinks the pool
  // as the period drains).
  const MonitorPort::PoolTouch before = port_.InstallPool(new_pool);
  PeriodLedger& cur = ledger_.back();
  cur.granted += before.granted;
  cur.minted += new_pool - before.raw;
  Emit(obs::EventType::kTokenConvert, before.raw, new_pool,
       outstanding_reservation);
  last_written_pool_ = new_pool;
  ++stats_.conversions;
}

void MonitorCore::Calibrate() {
  // Step T3: feed Algorithm 1 with the reported completion total. Without
  // any reports this period (pool untouched), there is no signal — skip.
  // Clients that died mid-period still did their reported work; start the
  // total from their salvaged counts so Algorithm 1 does not read a crash
  // as a capacity drop.
  std::int64_t total_completed = dead_completed_this_period_;
  for (const auto& entry : clients_) {
    const std::uint64_t slot = port_.ReadSlot(entry.slot);
    if (ThisPeriod(slot)) {
      total_completed += ReportCompleted(slot);
      Emit(obs::EventType::kClientPeriodReport,
           static_cast<std::int64_t>(Raw(entry.id)),
           static_cast<std::int64_t>(ReportCompleted(slot)),
           static_cast<std::int64_t>(ReportResidual(slot)));
    }
  }
  stats_.last_period_completions = total_completed;
  if (reporting_active_) {
    estimator_->OnPeriodEnd(total_completed);
    Emit(obs::EventType::kCapacityEstimate, total_completed,
         estimator_->Estimate(),
         static_cast<std::int64_t>(estimator_->LastDecision()));

    for (auto& entry : clients_) {
      const std::uint64_t slot = port_.ReadSlot(entry.slot);
      if (!ThisPeriod(slot)) continue;
      const auto completed = static_cast<std::int64_t>(ReportCompleted(slot));
      if (completed < entry.reservation) {
        ++entry.underuse_streak;
        if (entry.underuse_streak >= config_.underuse_alert_periods) {
          ++stats_.over_reserve_hints;
          if (over_reserve_cb_) over_reserve_cb_(entry.id);
          Send(entry,
               OverReserveHintMsg{.consecutive_periods = entry.underuse_streak});
          entry.underuse_streak = 0;
        }
      } else {
        entry.underuse_streak = 0;
      }
    }
  }
  if (period_hook_) {
    period_hook_(stats_.periods, total_completed, estimator_->Estimate());
  }
}

MonitorCore::ClientEntry* MonitorCore::FindClient(ClientId client) {
  const auto it =
      std::find_if(clients_.begin(), clients_.end(),
                   [&](const ClientEntry& e) { return e.id == client; });
  return it == clients_.end() ? nullptr : &*it;
}

const MonitorCore::ClientEntry* MonitorCore::FindClient(
    ClientId client) const {
  return const_cast<MonitorCore*>(this)->FindClient(client);
}

std::uint32_t MonitorCore::LastResidual(ClientId client) const {
  return ReportResidual(SlotOf(client));
}

std::uint32_t MonitorCore::LastCompleted(ClientId client) const {
  return ReportCompleted(SlotOf(client));
}

std::uint64_t MonitorCore::SlotOf(ClientId client) const {
  const ClientEntry* entry = FindClient(client);
  HAECHI_EXPECTS(entry != nullptr);
  return port_.ReadSlot(entry->slot);
}

}  // namespace haechi::core
