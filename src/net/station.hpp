// Queueing stations: the timing substrate beneath the simulated RDMA fabric.
//
// A station serves work items one at a time from its queue(s); each item
// carries its own service time (computed by the NIC model from the op size)
// and a completion callback. Two disciplines are provided:
//
//  * SerialStation — single FIFO. Models a client adapter's DMA pipeline.
//  * FairShareStation — multi-flow station for the data-node adapter (and
//    the RPC dispatch CPU), serving either in strict arrival order (kFifo,
//    the RNIC responder behaviour) or round-robin per flow (ablation).
//    Either way, saturated capacity divides equally among closed-loop
//    backlogged clients, as the paper observes in Experiment 1C.
//
// Optional multiplicative jitter perturbs each service time so profiled
// capacity has a genuine variance (used by Algorithm 1's sigma).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace haechi::net {

/// Distinguishes traffic sources at a FairShareStation. Flows are small
/// dense integers (client index or background-job index).
using FlowId = std::uint32_t;

/// Invoked when the station finishes serving an item.
using ServiceDoneFn = sim::Callback;

namespace detail {

/// Shared jitter helper: scales `service` by U[1-jitter, 1+jitter].
SimDuration ApplyJitter(SimDuration service, double jitter, Rng& rng);

}  // namespace detail

/// Single-queue, single-server FIFO station.
class SerialStation {
 public:
  SerialStation(sim::Simulator& sim, std::string name, double jitter,
                std::uint64_t seed);

  SerialStation(const SerialStation&) = delete;
  SerialStation& operator=(const SerialStation&) = delete;

  /// Enqueues an item needing `service_time` ns of service; `done` runs at
  /// the simulated instant service completes.
  void Submit(SimDuration service_time, ServiceDoneFn done);

  [[nodiscard]] std::size_t QueueDepth() const { return queue_.size(); }
  [[nodiscard]] bool Busy() const { return busy_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Total items served since construction.
  [[nodiscard]] std::uint64_t Served() const { return served_; }

  /// Cumulative busy time, for utilisation accounting.
  [[nodiscard]] SimDuration BusyTime() const { return busy_time_; }

 private:
  struct Item {
    SimDuration service;
    ServiceDoneFn done;
  };

  void StartNext();
  void Finish();

  sim::Simulator& sim_;
  std::string name_;
  double jitter_;
  Rng rng_;
  std::deque<Item> queue_;
  ServiceDoneFn in_service_;  // callback of the item being served
  bool busy_ = false;
  std::uint64_t served_ = 0;
  SimDuration busy_time_ = 0;
};

/// How a multi-flow station orders bulk service.
///
/// kRoundRobin (default for the data-node NIC): per-flow FIFOs served
/// round-robin — an RNIC responder arbitrating across QPs with per-QP
/// credit backpressure. Saturated capacity divides equally among
/// backlogged flows (Experiment 1C), and an unmanaged flow (Set 4's
/// background jobs) always gets its arbitration share no matter how deep
/// another flow's queue is.
///
/// kFifo: one strict wire-arrival-order queue (ablation — it lets a deep
/// early-posted queue monopolise service positions).
///
/// Either way, *small* control ops (atomics, sub-64-byte writes/sends) are
/// submitted at kControl priority and served from a fast-path lane ahead
/// of bulk data: a real responder executes an 8-byte packet in its NIC
/// pipeline immediately; only bulk DMA bandwidth queues.
enum class Discipline : std::uint8_t { kFifo, kRoundRobin };

/// Service priority at a station. kControl models the RNIC fast path for
/// small ops; kBulk is bandwidth-bound data.
enum class Priority : std::uint8_t { kBulk, kControl };

/// Multi-flow station with a selectable service discipline.
class FairShareStation {
 public:
  FairShareStation(sim::Simulator& sim, std::string name, double jitter,
                   std::uint64_t seed,
                   Discipline discipline = Discipline::kRoundRobin);

  FairShareStation(const FairShareStation&) = delete;
  FairShareStation& operator=(const FairShareStation&) = delete;

  /// Enqueues an item for `flow`. Flows are created on first use.
  /// kControl items are served before any queued kBulk item.
  void Submit(FlowId flow, SimDuration service_time, ServiceDoneFn done,
              Priority priority = Priority::kBulk);

  [[nodiscard]] std::size_t QueueDepth() const { return queued_; }
  [[nodiscard]] std::size_t QueueDepth(FlowId flow) const;
  [[nodiscard]] bool Busy() const { return busy_; }
  [[nodiscard]] std::uint64_t Served() const { return served_; }
  [[nodiscard]] SimDuration BusyTime() const { return busy_time_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Item {
    SimDuration service = 0;
    ServiceDoneFn done;
    FlowId flow = 0;
  };

  void StartNext();
  void Finish();
  /// Index of the next non-empty flow, or flows_.size() if none.
  [[nodiscard]] std::size_t FindNextActive() const;

  sim::Simulator& sim_;
  std::string name_;
  double jitter_;
  Rng rng_;
  Discipline discipline_;
  std::deque<Item> control_;             // fast-path lane (both disciplines)
  std::deque<Item> fifo_;                // kFifo: one arrival-ordered queue
  std::vector<std::deque<Item>> flows_;  // kRoundRobin: per-flow queues
  std::vector<std::size_t> fifo_depths_; // kFifo: per-flow depth accounting
  std::size_t cursor_ = 0;               // round-robin position (flow index)
  std::size_t queued_ = 0;
  ServiceDoneFn in_service_;  // callback of the item being served
  bool busy_ = false;
  std::uint64_t served_ = 0;
  SimDuration busy_time_ = 0;
};

}  // namespace haechi::net
