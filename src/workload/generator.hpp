// YCSB-style request generation.
//
// A DemandGenerator replays a client's demand: a target number of I/Os per
// QoS period, issued under one of the paper's two temporal patterns:
//
//  * kBurst        — keep `outstanding` (64) requests in flight at all
//                    times until the period's target is met (Exp 1A's
//                    "burst requests");
//  * kConstantRate — spread the target evenly across the period
//                    (Exp 1C's "constant-rate requests");
//  * kOpenLoop     — submit the whole period target at once (the
//                    continuously-backlogged regime of Definition 1 used
//                    by Experiment Set 2).
//
// Keys are chosen by a pluggable KeyChooser (uniform / zipfian / latest-
// style sequential). The generator is transport-agnostic: it hands each
// request to a SubmitFn (the bare KV client or the Haechi QoS engine) and
// learns of completion through a callback, which is also where latency is
// recorded.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"

namespace haechi::workload {

enum class RequestPattern {
  /// Keep `outstanding` (64) requests in flight until the period target is
  /// met — Experiment 1A's closed-loop "burst requests".
  kBurst,
  /// Spread the target evenly across the period (Exp 1C). When the system
  /// cannot keep up, ticks are skipped once `outstanding` requests are in
  /// flight — the standard load-generator backlog bound, which keeps
  /// latency measurements free of unbounded queue build-up when the target
  /// rate is slightly infeasible.
  kConstantRate,
  /// Submit the entire period target at the period boundary. This is the
  /// demand-sufficiency regime of Definition 1 (D_i(t) >= rho_i(t) for all
  /// t), which the paper's Experiment Set 2 clients require; the QoS
  /// engine's software send queue absorbs the burst.
  kOpenLoop,
};

/// Chooses the key for each GET.
class KeyChooser {
 public:
  enum class Kind { kUniformRandom, kZipfian, kSequential };

  KeyChooser(Kind kind, std::uint64_t record_count, double theta, Rng rng);

  std::uint64_t Next();

 private:
  Kind kind_;
  std::uint64_t record_count_;
  Rng rng_;
  std::uint64_t cursor_ = 0;
  std::optional<ScrambledZipfianSampler> zipf_;
};

class DemandGenerator {
 public:
  struct Config {
    RequestPattern pattern = RequestPattern::kBurst;
    /// Burst window: app-level outstanding requests (paper: 64).
    std::size_t outstanding = 64;
    SimDuration period = kSecond;
    /// Target I/Os per period. May be changed between periods.
    std::int64_t demand_per_period = 0;
    /// Fraction of requests that are writes (YCSB-A: 0.5, B: 0.05,
    /// C: 0.0 — the paper evaluates C).
    double write_fraction = 0.0;
  };

  /// Completion handle for one submitted request: two words naming the
  /// generator and the submit instant, so a backend can carry it inside
  /// its own inline callback (or copy it to run on a rejected submit).
  class CompleteFn {
   public:
    void operator()() const { generator_->OnComplete(submitted_at_); }

   private:
    friend class DemandGenerator;
    CompleteFn(DemandGenerator* generator, SimTime submitted_at)
        : generator_(generator), submitted_at_(submitted_at) {}
    DemandGenerator* generator_;
    SimTime submitted_at_;
  };
  /// Issues one I/O for `key`; must invoke the callback exactly once at the
  /// simulated completion instant.
  using SubmitFn =
      std::function<void(std::uint64_t key, bool is_write, CompleteFn)>;

  DemandGenerator(sim::Simulator& sim, const Config& config,
                  KeyChooser chooser, SubmitFn submit);

  /// Writes issued so far (when write_fraction > 0).
  [[nodiscard]] std::int64_t WritesSubmitted() const {
    return writes_submitted_;
  }

  DemandGenerator(const DemandGenerator&) = delete;
  DemandGenerator& operator=(const DemandGenerator&) = delete;

  /// Begins generating at absolute time `at`, with period boundaries every
  /// `config.period` thereafter.
  void Start(SimTime at);

  /// Stops at the next event boundary; in-flight requests still complete.
  void Stop();

  /// Changes the per-period target; takes effect at the next period start.
  void set_demand(std::int64_t demand) { pending_demand_ = demand; }

  /// Optional latency sink: submit→completion times (ns) are recorded from
  /// `after` onwards (lets benches exclude warm-up).
  void SetLatencySink(stats::Histogram* sink, SimTime after = 0) {
    latency_sink_ = sink;
    latency_after_ = after;
  }

  [[nodiscard]] std::int64_t SubmittedTotal() const { return submitted_total_; }
  [[nodiscard]] std::int64_t CompletedTotal() const { return completed_total_; }
  [[nodiscard]] std::int64_t InFlight() const { return in_flight_; }

  /// Constant-rate ticks skipped because the backlog cap was hit.
  [[nodiscard]] std::int64_t Skipped() const { return skipped_total_; }

 private:
  void BeginPeriod();
  void FillBurstWindow();
  void SubmitOne();
  void OnComplete(SimTime submitted_at);

  sim::Simulator& sim_;
  Config config_;
  KeyChooser chooser_;
  SubmitFn submit_;
  Rng write_rng_{0x5eed};
  std::int64_t writes_submitted_ = 0;
  bool running_ = false;
  std::int64_t pending_demand_;
  std::int64_t submitted_this_period_ = 0;
  std::int64_t submitted_total_ = 0;
  std::int64_t completed_total_ = 0;
  std::int64_t in_flight_ = 0;
  std::int64_t skipped_total_ = 0;
  stats::Histogram* latency_sink_ = nullptr;
  SimTime latency_after_ = 0;
  std::unique_ptr<sim::PeriodicTimer> period_timer_;
  std::unique_ptr<sim::PeriodicTimer> rate_timer_;
};

}  // namespace haechi::workload
