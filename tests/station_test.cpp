// Unit tests for the queueing station: service rates, FIFO vs round-robin
// disciplines, the round-robin arbiter against a linear-scan reference, the
// control-priority fast path, and jitter bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "net/model_params.hpp"
#include "net/station.hpp"
#include "sim/simulator.hpp"

namespace haechi::net {
namespace {

// A single-flow station is one FIFO queue: the client out-NIC case.

TEST(FairShareStation, SingleFlowServesAtConfiguredRate) {
  sim::Simulator sim;
  FairShareStation station(sim, "nic", /*jitter=*/0.0, /*seed=*/1);
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    station.Submit(0, 1000, [&] { ++done; });
  }
  sim.RunUntil(50'000);
  EXPECT_EQ(done, 50);
  sim.Run();
  EXPECT_EQ(done, 100);
  EXPECT_EQ(station.Served(), 100u);
  EXPECT_EQ(station.BusyTime(), 100'000);
}

TEST(FairShareStation, SingleFlowFifoOrder) {
  sim::Simulator sim;
  FairShareStation station(sim, "nic", 0.0, 1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    station.Submit(0, 10, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(FairShareStation, SingleFlowIdleThenBusy) {
  sim::Simulator sim;
  FairShareStation station(sim, "nic", 0.0, 1);
  EXPECT_FALSE(station.Busy());
  station.Submit(0, 10, [] {});
  EXPECT_TRUE(station.Busy());
  sim.Run();
  EXPECT_FALSE(station.Busy());
  EXPECT_EQ(station.QueueDepth(), 0u);
  EXPECT_EQ(station.QueueDepth(0), 0u);
}

TEST(FairShareStation, SingleFlowCompletionCanResubmit) {
  sim::Simulator sim;
  FairShareStation station(sim, "nic", 0.0, 1);
  int chain = 0;
  std::function<void()> resubmit = [&] {
    if (++chain < 5) station.Submit(0, 7, resubmit);
  };
  station.Submit(0, 7, resubmit);
  sim.Run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.Now(), 5 * 7);
}

TEST(FairShareStation, SingleFlowJitterStaysWithinBounds) {
  sim::Simulator sim;
  FairShareStation station(sim, "nic", /*jitter=*/0.1, /*seed=*/3);
  std::vector<SimTime> completions;
  SimTime last = 0;
  for (int i = 0; i < 1000; ++i) {
    station.Submit(0, 1000, [&] {
      completions.push_back(sim.Now() - last);
      last = sim.Now();
    });
  }
  sim.Run();
  for (const SimTime service : completions) {
    EXPECT_GE(service, 900);
    EXPECT_LE(service, 1100);
  }
  // Mean close to nominal.
  EXPECT_NEAR(static_cast<double>(sim.Now()) / 1000.0, 1000.0, 10.0);
}

TEST(FairShareStation, RoundRobinSharesEqually) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  std::vector<int> done(4, 0);
  for (int f = 0; f < 4; ++f) {
    for (int i = 0; i < 1000; ++i) {
      station.Submit(static_cast<FlowId>(f), 100, [&done, f] { ++done[f]; });
    }
  }
  sim.RunUntil(100 * 2000);  // half the total work
  for (int f = 0; f < 4; ++f) {
    EXPECT_NEAR(done[f], 500, 2) << "flow " << f;
  }
}

TEST(FairShareStation, RoundRobinSkipsEmptyFlows) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  int done_a = 0, done_b = 0;
  for (int i = 0; i < 10; ++i) station.Submit(0, 100, [&] { ++done_a; });
  station.Submit(7, 100, [&] { ++done_b; });  // sparse flow id
  sim.Run();
  EXPECT_EQ(done_a, 10);
  EXPECT_EQ(done_b, 1);
}

TEST(FairShareStation, FifoServesInArrivalOrder) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kFifo);
  std::vector<int> order;
  station.Submit(0, 100, [&] { order.push_back(0); });
  station.Submit(1, 100, [&] { order.push_back(1); });
  station.Submit(0, 100, [&] { order.push_back(2); });
  station.Submit(2, 100, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FairShareStation, FifoTracksPerFlowDepth) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kFifo);
  station.Submit(3, 100, [] {});
  station.Submit(3, 100, [] {});
  station.Submit(5, 100, [] {});
  // One item is in service already; 2 remain queued.
  EXPECT_EQ(station.QueueDepth(), 2u);
  EXPECT_GE(station.QueueDepth(3), 1u);
  sim.Run();
  EXPECT_EQ(station.QueueDepth(3), 0u);
  EXPECT_EQ(station.QueueDepth(5), 0u);
}

TEST(FairShareStation, ControlPriorityBypassesBulkBacklog) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kFifo);
  SimTime control_done = -1;
  // 1000 bulk items of 1µs each = 1ms of backlog.
  for (int i = 0; i < 1000; ++i) station.Submit(0, 1000, [] {});
  station.Submit(1, 50, [&] { control_done = sim.Now(); },
                 Priority::kControl);
  sim.Run();
  // Control op finishes after at most one in-service bulk item, not after
  // the 1 ms backlog.
  EXPECT_GT(control_done, 0);
  EXPECT_LE(control_done, 2 * 1000 + 50);
  EXPECT_EQ(sim.Now(), 1000 * 1000 + 50);
}

TEST(FairShareStation, ControlPriorityWorksUnderRoundRobinToo) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  SimTime control_done = -1;
  for (int i = 0; i < 100; ++i) station.Submit(0, 1000, [] {});
  station.Submit(0, 50, [&] { control_done = sim.Now(); },
                 Priority::kControl);
  sim.Run();
  EXPECT_LE(control_done, 2 * 1000 + 50);
}

TEST(FairShareStation, WorkConservingAcrossFlows) {
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  // Flow 0 has steady work; flow 1 arrives late; station must never idle.
  for (int i = 0; i < 100; ++i) station.Submit(0, 100, [] {});
  sim.ScheduleAt(5'000, [&] {
    for (int i = 0; i < 10; ++i) station.Submit(1, 100, [] {});
  });
  sim.Run();
  EXPECT_EQ(sim.Now(), 110 * 100);
  EXPECT_EQ(station.BusyTime(), 110 * 100);
}

// The round-robin arbiter as a plain linear scan over the flow table: the
// first non-empty flow at or after the cursor in cyclic index order, then
// the cursor moves one past it. It mirrors the station's queues, busy flag
// and control lane so both can be driven from one schedule.
class ReferenceArbiter {
 public:
  void Submit(FlowId flow, int id, Priority priority) {
    if (priority == Priority::kControl) {
      control_.push_back(id);
    } else {
      if (flow >= flows_.size()) flows_.resize(flow + 1);
      flows_[flow].push_back(id);
    }
    ++queued_;
    if (in_service_ < 0) StartNext();
  }

  /// Completes the item in service, if any, and starts the next one.
  void Serve() {
    if (in_service_ < 0) return;
    order_.push_back(in_service_);
    in_service_ = -1;
    StartNext();
  }

  [[nodiscard]] std::size_t QueueDepth() const { return queued_; }
  [[nodiscard]] std::size_t QueueDepth(FlowId flow) const {
    return flow < flows_.size() ? flows_[flow].size() : 0;
  }
  [[nodiscard]] const std::vector<int>& order() const { return order_; }

 private:
  [[nodiscard]] std::size_t FindNextActive() const {
    const std::size_t n = flows_.size();
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t idx = (cursor_ + step) % n;
      if (!flows_[idx].empty()) return idx;
    }
    return n;
  }

  void StartNext() {
    if (queued_ == 0) return;
    if (!control_.empty()) {
      in_service_ = control_.front();
      control_.pop_front();
    } else {
      const std::size_t idx = FindNextActive();
      in_service_ = flows_[idx].front();
      flows_[idx].pop_front();
      cursor_ = (idx + 1) % flows_.size();
    }
    --queued_;
  }

  std::deque<int> control_;
  std::vector<std::deque<int>> flows_;
  std::size_t cursor_ = 0;
  std::size_t queued_ = 0;
  int in_service_ = -1;
  std::vector<int> order_;
};

TEST(FairShareStation, RoundRobinMatchesLinearScanReference) {
  constexpr SimDuration kService = 10;
  // Flow ids straddle the 64-bit words of the backlog bitmap; 359 and 600
  // join late, while the station is busy, so the flow table grows mid-run.
  const std::vector<FlowId> early = {0, 1, 63, 64, 65, 127, 128};
  const std::vector<FlowId> late = {359, 600};
  sim::Simulator sim;
  FairShareStation station(sim, "srv", 0.0, 1, Discipline::kRoundRobin);
  ReferenceArbiter reference;
  std::vector<int> order;
  std::vector<FlowId> flows = early;
  Rng rng(23);
  int next_id = 0;
  const auto submit = [&](FlowId flow, Priority priority) {
    const int id = next_id++;
    station.Submit(flow, kService, [&order, id] { order.push_back(id); },
                   priority);
    reference.Submit(flow, id, priority);
  };
  for (int step = 0; step < 6000; ++step) {
    if (step == 2000 || step == 4000) {
      const FlowId joining = late[step / 2000 - 1];
      submit(0, Priority::kBulk);
      ASSERT_TRUE(station.Busy());
      ASSERT_EQ(station.QueueDepth(joining), 0u);
      submit(joining, Priority::kBulk);
      flows.push_back(joining);
    }
    // Phases alternate between filling and draining, so flows go idle and
    // come back and the station empties now and then.
    const std::uint64_t submit_pct = (step / 500) % 2 == 0 ? 70 : 35;
    if (rng.NextBelow(100) < submit_pct) {
      const FlowId flow = flows[rng.NextBelow(flows.size())];
      submit(flow, rng.NextBelow(10) == 0 ? Priority::kControl
                                          : Priority::kBulk);
    } else {
      sim.RunUntil(sim.Now() + kService);
      reference.Serve();
    }
    ASSERT_EQ(order, reference.order()) << "step " << step;
    ASSERT_EQ(station.QueueDepth(), reference.QueueDepth()) << "step " << step;
    for (const FlowId flow : flows) {
      ASSERT_EQ(station.QueueDepth(flow), reference.QueueDepth(flow))
          << "step " << step << " flow " << flow;
    }
  }
  // Drain both and compare the whole service order.
  while (station.Busy()) {
    sim.RunUntil(sim.Now() + kService);
    reference.Serve();
  }
  EXPECT_EQ(order, reference.order());
  EXPECT_EQ(order.size(), static_cast<std::size_t>(next_id));
}

TEST(ModelParams, CalibratedCapacities) {
  const ModelParams params;
  EXPECT_NEAR(params.LocalCapacityIops(), 400'000, 2'000);
  EXPECT_NEAR(params.GlobalCapacityIops(), 1'570'000, 10'000);
  EXPECT_NEAR(params.TwoSidedCapacityIops(), 430'000, 2'000);
}

TEST(ModelParams, CapacityScaleShrinksDataNotControl) {
  ModelParams params;
  params.capacity_scale = 0.1;
  EXPECT_NEAR(params.GlobalCapacityIops(), 157'000, 1'000);
  // Control-plane floors are scale-invariant.
  EXPECT_EQ(params.ClientNicService(8), params.min_op_service);
  ModelParams full;
  EXPECT_EQ(params.ClientNicService(8), full.ClientNicService(8));
}

TEST(ModelParams, ServiceTimeMonotoneInSize) {
  const ModelParams params;
  EXPECT_LT(params.ServerNicService(64), params.ServerNicService(4096));
  EXPECT_LT(params.ClientNicService(512), params.ClientNicService(4096));
}

}  // namespace
}  // namespace haechi::net
