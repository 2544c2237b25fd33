// Tunables of the Haechi QoS protocol, with the paper's defaults.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace haechi::core {

struct QosConfig {
  /// QoS period T (paper: 1 s).
  SimDuration period = kSecond;

  /// Client token-management tick delta (paper: 1 ms) — the cadence at
  /// which unused reservation tokens decay back toward rho_i(t).
  SimDuration token_tick = kMillisecond;

  /// Client reporting interval once signalled (paper: 1 ms).
  SimDuration report_interval = kMillisecond;

  /// Monitor check interval (paper: 1 ms).
  SimDuration check_interval = kMillisecond;

  /// Global tokens fetched per remote FAA (paper: B = 1000).
  std::int64_t token_batch = 1000;

  /// When a client finds the pool empty, it retries the FAA at this
  /// cadence (waiting for the monitor's token conversion or the next
  /// period; the paper's step T4).
  SimDuration pool_retry_interval = kMillisecond;

  /// The engine posts no new token fetch within this window of the
  /// expected period end: a batch acquired while the monitor rolls the
  /// period over would be discarded (tokens are not carried across
  /// periods), silently wasting up to B tokens per client per period and
  /// breaking Algorithm 1's full-consumption (U == Omega) signal.
  SimDuration faa_end_guard = Millis(2);

  /// Number of shards the global token pool is split across (threaded
  /// runtime only; the simulator models one remote word). Each client FAAs
  /// its home shard (slot % pool_shards) and probes the others only when
  /// the home shard runs dry; the monitor provisions, converts and samples
  /// per shard and rebalances surplus between shards on its check tick.
  /// All ledger identities hold on the shard *sum*. 1 = the paper's single
  /// contended word.
  std::int64_t pool_shards = 1;

  /// Token-fetch chain length: one remote FAA draws
  /// token_batch * fetch_batch tokens, amortising the atomic (and, on a
  /// real NIC, the doorbell) over a chain of requests. 1 = the paper's
  /// per-batch FAA. Both backends honour it.
  std::int64_t fetch_batch = 1;

  /// Capacity-estimation increment eta (tokens/period). 0 = derive as
  /// eta_fraction of the profiled capacity.
  std::int64_t eta = 0;
  double eta_fraction = 0.03;

  /// Capacity-estimation history window M.
  std::size_t history_window = 4;

  /// sigma of the profiled capacity (tokens/period). 0 = derive as
  /// sigma_fraction of the profiled capacity. The estimator's floor is
  /// Omega_prof - 3 sigma.
  std::int64_t sigma = 0;
  double sigma_fraction = 0.08;

  /// Consecutive underuse periods before the monitor flags a client as
  /// having over-reserved (Algorithm 1's counter).
  std::uint32_t underuse_alert_periods = 5;

  /// Report lease k: once reporting is active, a client whose report slot
  /// has not changed for k consecutive check intervals is declared dead —
  /// its reservation is released through admission control and its
  /// unreported residual converted into global tokens (work conservation
  /// under client failure). 0 disables liveness tracking (graceful
  /// disconnects only). Reports flow every report_interval, so k must
  /// comfortably exceed report_interval / check_interval; k >= 4 leaves
  /// room for one lost report WRITE.
  std::uint32_t report_lease_intervals = 0;

  /// First retry delay after a *failed* token-fetch completion (NAK, retry
  /// timeout, flush). Doubles on every consecutive failure up to
  /// faa_retry_backoff_max and resets on success or a new period — the
  /// engine keeps probing a flaky fabric without hammering it. (An *empty*
  /// pool is not a failure; that path keeps the paper's fixed
  /// pool_retry_interval cadence.)
  SimDuration faa_retry_backoff = kMillisecond;
  SimDuration faa_retry_backoff_max = Millis(32);

  /// Disables token conversion (step T2): the paper's Basic Haechi
  /// ablation, which wastes unused reservation tokens.
  bool token_conversion = true;

  /// Monitor observes the global-token word through a loopback RDMA CAS
  /// (as described in the paper) instead of a local load. Identical
  /// values, small extra NIC traffic; kept for fidelity tests.
  bool loopback_cas = false;

  /// Upper bound on requests parked in a client engine waiting for
  /// tokens; beyond it Submit() rejects (runaway-client isolation).
  std::size_t max_engine_queue = 1u << 20;

  /// Monitor checkpoint cadence (periods): every Nth period boundary the
  /// monitor snapshots its provisioning state (reservations, limits, slot
  /// map, pool word, borrow credit) into an in-region checkpoint a
  /// restarted monitor recovers from (DESIGN.md §15). 0 disables
  /// checkpointing (a crash then loses all provisioning state).
  std::uint32_t checkpoint_every_periods = 1;

  /// Degraded-mode trigger: when no period-start has arrived for
  /// period * degraded_grace_permille / 1000, the engine assumes the
  /// monitor is down and falls back to reservation-only pacing (no
  /// free-token FAA) from its last provisioned split. Must exceed 1000 —
  /// a token tick can land at exactly one period before the boundary
  /// message is processed. 0 disables degraded mode (the engine stalls
  /// token-less until the monitor returns).
  std::uint32_t degraded_grace_permille = 1500;

  /// Bounded staleness: synthetic reservation-only periods the engine
  /// self-issues at most while the monitor is silent. Past this it stops
  /// issuing (the last provisioned split is too stale to trust).
  std::uint32_t degraded_max_periods = 8;

  /// Bounded recovery: when the monitor returns after a degraded spell,
  /// the engine sheds queued requests beyond this many periods' worth of
  /// its last provisioned reservation (oldest first, like a crash drops
  /// in-flight work). Without shedding, demand that backlogged during the
  /// outage competes with reservation traffic for many periods afterwards
  /// and the re-synced clients cannot meet their guarantee (A9) in any
  /// bounded window. 0 keeps the whole backlog.
  std::uint32_t recovery_backlog_periods = 1;

  /// I/Os the engine keeps outstanding at its backend at most. The engine
  /// posts token-backed I/Os immediately (the paper's data-access flow
  /// performs the one-sided I/O as soon as a request has a token); a
  /// software send queue in front of the QP absorbs deep bursts, so the
  /// default is effectively unbounded. Lower it to emulate a hard SQ-depth
  /// cap; it must not exceed the backend's capacity (KvClient slots) when
  /// payload copying is on.
  std::size_t max_backend_outstanding = 1u << 20;
};

}  // namespace haechi::core
