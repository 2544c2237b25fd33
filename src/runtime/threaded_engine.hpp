// The client-side QoS engine on real threads (paper §II-D): the threaded
// adapter around core::EngineCore, which holds every protocol rule. It adds
// the transport: one mutex serialising the core (every trace event is
// emitted under it, so per-actor streams stay time-ordered for the audit's
// A1), wall timers, control messages delivered by direct call from the
// monitor thread, and TryAcquireBatch — the worker pulls tokens and runs
// the batched FAA inline, home shard first, with the lock dropped around
// each fetch_add, so N clients genuinely contend on the shared pool words.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "common/types.hpp"
#include "core/config.hpp"
#include "core/engine_core.hpp"
#include "core/wire.hpp"
#include "obs/trace.hpp"
#include "runtime/clock.hpp"
#include "runtime/threaded_fabric.hpp"

namespace haechi::runtime {

class ThreadedEngine final : private core::EnginePort,
                             private core::EngineCore {
 public:
  /// The sim engine's stats struct, so differential tests compare like
  /// with like.
  using Stats = core::EngineCore::Stats;

  /// Threaded-runtime-only shard-contention telemetry. Kept separate from
  /// Stats (shared with the sim engine and diffed field-for-field by the
  /// differential tests, so it must not grow runtime-only fields).
  struct RuntimeStats {
    std::uint64_t faa_home_hits = 0;   // home-shard FAA acquired tokens
    std::uint64_t faa_steals = 0;      // non-home-shard FAA acquired tokens
    std::uint64_t faa_dry_probes = 0;  // an FAA probe found its shard empty
    std::uint64_t span_ios = 0;        // detail span triplets emitted
  };

  /// What a TryAcquireBatch poll ended with.
  enum class Grant {
    kToken,       // token(s) consumed; caller owns that many issued I/Os
    kPeriodOver,  // the requested period ended
    kStopped,     // engine stopped; worker should exit
    kNotReady,    // nothing grantable right now (limit throttle, backend
                  // full, end guard, empty pool)
  };

  /// TryAcquireBatch's result: on kToken, `count` tokens were granted and
  /// the caller must perform exactly that many I/Os and report them via
  /// OnIoCompleted(count). The first `from_reservation` of them were
  /// reservation tokens, the rest fetched pool tokens.
  struct Batch {
    Grant status = Grant::kNotReady;
    std::int64_t count = 0;
    std::int64_t from_reservation = 0;
  };

  /// `port`/`slot` come from the monitor's admission (ThreadedWiring).
  ThreadedEngine(Clock& clock, obs::Recorder* recorder, ClientId id,
                 const core::QosConfig& config, ThreadedFabric& fabric,
                 std::size_t port, std::size_t slot);
  ~ThreadedEngine() override;

  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  /// One control message, by direct call from the monitor thread (the
  /// two-sided SEND landing in the ctrl CQ).
  void Deliver(const core::ControlMsg& msg);

  /// Tears the engine down for good: later deliveries are dropped and
  /// TryAcquireBatch returns kStopped.
  void Stop();

  // --- worker side --------------------------------------------------------

  /// Non-blocking multi-token acquisition for the worker-pool event loop:
  /// grants up to `max_tokens` from the reservation / locally-held global
  /// stock, running at most one probe round of batched remote FAAs (home
  /// shard first, then the rest) when the local stock is dry. One mutex
  /// acquisition amortises over the whole chain. Never parks — kNotReady
  /// tells the caller to service other clients and poll again.
  Batch TryAcquireBatch(std::uint32_t p, std::int64_t max_tokens);

  void OnIoCompleted(std::int64_t n = 1);

  [[nodiscard]] bool Stopped() const;
  [[nodiscard]] Stats StatsSnapshot() const;
  [[nodiscard]] RuntimeStats RuntimeStatsSnapshot() const;
  [[nodiscard]] std::uint32_t CurrentPeriod() const;

 private:
  // EnginePort. The fetch itself runs in FetchPoolRoundLocked, after the
  // core has booked it and with the lock dropped, so PostFetch only
  // acknowledges it.
  [[nodiscard]] SimTime Now() const override { return clock_.Now(); }
  Status PostFetch(std::int64_t /*delta*/) override { return Status::Ok(); }
  Status PostReport(std::uint64_t packed) override;
  /// Workers pull tokens: there is no engine-side request queue to shed.
  std::int64_t ShedQueued(std::size_t /*keep*/) override { return 0; }
  void Emit(obs::EventType type, std::uint32_t period, std::int64_t a,
            std::int64_t b, std::int64_t c) override;

  void TokenTick();
  void ReportTick();
  /// One probe round of batched remote FAAs (home shard first, then the
  /// other shards, one FAA each); drops `lk` around each FAA and returns
  /// with it held. Tokens land in the core's local stock; an all-empty
  /// round leaves the core's pool-retry deadline armed.
  void FetchPoolRoundLocked(std::unique_lock<std::mutex>& lk);

  Clock& clock_;
  obs::Recorder* recorder_;
  ThreadedFabric& fabric_;
  std::size_t port_;
  std::size_t slot_;
  std::size_t shards_;
  std::size_t home_shard_;

  mutable std::mutex mu_;
  RuntimeStats runtime_stats_;
  // Per-IO span ids (detail traces only), dense in grant order. Workers
  // issue granted I/Os in order, so the oldest outstanding id completes
  // first.
  std::uint64_t next_io_id_ = 0;

  std::unique_ptr<PeriodicTimer> token_timer_;
  std::unique_ptr<PeriodicTimer> report_timer_;
};

}  // namespace haechi::runtime
