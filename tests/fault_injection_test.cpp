// Unit tests of the deterministic fault-injection fabric: each fault
// primitive (drop, delay, duplicate, QP error, node crash/restart/pause/
// resume) in isolation, plus the determinism contract — an identical
// (plan, seed, workload) must reproduce a bit-identical completion trace.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "rdma/fabric.hpp"
#include "rdma/fault.hpp"
#include "sim/simulator.hpp"

namespace haechi::rdma {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : fabric_(sim_, net::ModelParams{}, /*seed=*/7),
        server_(fabric_.AddNode("server", NodeRole::kData)),
        client_(fabric_.AddNode("client")),
        client_cq_(client_.CreateCq()),
        server_cq_(server_.CreateCq()),
        client_qp_(client_.CreateQp(client_cq_, client_cq_)),
        server_qp_(server_.CreateQp(server_cq_, server_cq_)) {
    fabric_.Connect(client_qp_, server_qp_);
    remote_.resize(64, std::byte{0x5A});
    remote_mr_ = &server_.pd().Register(std::span<std::byte>(remote_),
                                        access::kAll);
    local_.resize(64, std::byte{0});
    client_.pd().Register(std::span<std::byte>(local_),
                          access::kLocalRead | access::kLocalWrite);
  }

  // Every scenario ends drained: each op record the fabric handed out —
  // dropped, delayed, duplicated, timed out, flushed or replayed — must be
  // back in its pool.
  void TearDown() override {
    sim_.Run();
    EXPECT_EQ(fabric_.LiveOps(), 0u);
  }

  std::vector<WorkCompletion> RunAndPoll(CompletionQueue& cq) {
    sim_.Run();
    return cq.Poll(64);
  }

  Status PostRead(std::uint64_t wr_id) {
    return client_qp_.PostRead(wr_id, std::span<std::byte>(local_),
                               remote_mr_->remote_addr(), remote_mr_->rkey());
  }

  sim::Simulator sim_;
  Fabric fabric_;
  Node& server_;
  Node& client_;
  CompletionQueue& client_cq_;
  CompletionQueue& server_cq_;
  QueuePair& client_qp_;
  QueuePair& server_qp_;
  std::vector<std::byte> remote_;
  std::vector<std::byte> local_;
  const MemoryRegion* remote_mr_ = nullptr;
};

TEST_F(FaultInjectionTest, DropCompletesWithRetryExceeded) {
  FaultPlan plan;
  FaultRule rule;
  rule.action = FaultAction::kDrop;
  rule.opcode = Opcode::kRead;
  plan.Add(rule);
  fabric_.InstallFaultPlan(plan);

  ASSERT_TRUE(client_qp_
                  .PostRead(1, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, WcStatus::kRetryExceeded);
  EXPECT_EQ(wcs[0].wr_id, 1u);
  // No data moved for a lost request.
  EXPECT_EQ(local_[0], std::byte{0});
  // The give-up takes the configured transport retry budget.
  EXPECT_GE(wcs[0].timestamp, net::ModelParams{}.retry_timeout);
  EXPECT_EQ(fabric_.fault_stats().ops_dropped, 1u);
}

TEST_F(FaultInjectionTest, DelayPostponesCompletionByTheConfiguredAmount) {
  // Baseline: identical op without the plan, in a twin fabric.
  SimTime baseline = 0;
  {
    sim::Simulator sim;
    Fabric fabric(sim, net::ModelParams{}, 7);
    Node& server = fabric.AddNode("server", NodeRole::kData);
    Node& client = fabric.AddNode("client");
    auto& cq = client.CreateCq();
    auto& scq = server.CreateCq();
    auto& qp = client.CreateQp(cq, cq);
    auto& sqp = server.CreateQp(scq, scq);
    fabric.Connect(qp, sqp);
    std::vector<std::byte> remote(64), local(64);
    const MemoryRegion& mr =
        server.pd().Register(std::span<std::byte>(remote), access::kAll);
    client.pd().Register(std::span<std::byte>(local),
                         access::kLocalRead | access::kLocalWrite);
    ASSERT_TRUE(qp.PostRead(1, std::span<std::byte>(local), mr.remote_addr(),
                            mr.rkey())
                    .ok());
    sim.Run();
    auto wcs = cq.Poll(4);
    ASSERT_EQ(wcs.size(), 1u);
    baseline = wcs[0].timestamp;
  }

  constexpr SimDuration kExtra = 5'000;
  FaultPlan plan;
  FaultRule rule;
  rule.action = FaultAction::kDelay;
  rule.delay = kExtra;
  plan.Add(rule);
  fabric_.InstallFaultPlan(plan);

  ASSERT_TRUE(client_qp_
                  .PostRead(1, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_EQ(wcs[0].timestamp, baseline + kExtra);
  EXPECT_EQ(local_[0], std::byte{0x5A});  // data still correct
  EXPECT_EQ(fabric_.fault_stats().ops_delayed, 1u);
}

TEST_F(FaultInjectionTest, DuplicateAtomicIsDedupedByTransport) {
  // PSN dedup: a duplicated FETCH_ADD must not double-apply.
  std::uint64_t word = 100;
  auto word_span = std::span<std::byte>(
      reinterpret_cast<std::byte*>(&word), sizeof(word));
  const MemoryRegion& word_mr =
      server_.pd().Register(word_span, access::kAll);

  FaultPlan plan;
  FaultRule rule;
  rule.action = FaultAction::kDuplicate;
  rule.opcode = Opcode::kFetchAdd;
  plan.Add(rule);
  fabric_.InstallFaultPlan(plan);

  ASSERT_TRUE(client_qp_
                  .PostFetchAdd(9, word_mr.remote_addr(), word_mr.rkey(),
                                -10)
                  .ok());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 1u);  // exactly one completion
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_EQ(wcs[0].atomic_result, 100u);
  EXPECT_EQ(word, 90u);  // applied once, not twice
  EXPECT_EQ(fabric_.fault_stats().ops_duplicated, 1u);
}

TEST_F(FaultInjectionTest, DuplicateWriteIsIdempotent) {
  FaultPlan plan;
  FaultRule rule;
  rule.action = FaultAction::kDuplicate;
  rule.opcode = Opcode::kWrite;
  plan.Add(rule);
  fabric_.InstallFaultPlan(plan);

  std::vector<std::byte> payload(64, std::byte{0xAB});
  client_.pd().Register(std::span<std::byte>(payload),
                        access::kLocalRead | access::kLocalWrite);
  ASSERT_TRUE(client_qp_
                  .PostWrite(2, std::span<const std::byte>(payload),
                             remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 1u);  // one completion despite two deliveries
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_EQ(remote_[0], std::byte{0xAB});
  EXPECT_EQ(fabric_.fault_stats().ops_duplicated, 1u);
}

TEST_F(FaultInjectionTest, MaxTriggersDisarmsARule) {
  FaultPlan plan;
  FaultRule rule;
  rule.action = FaultAction::kDrop;
  rule.opcode = Opcode::kRead;
  rule.max_triggers = 1;
  plan.Add(rule);
  fabric_.InstallFaultPlan(plan);

  ASSERT_TRUE(client_qp_
                  .PostRead(1, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  sim_.Run();
  ASSERT_TRUE(client_qp_
                  .PostRead(2, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 2u);
  EXPECT_EQ(wcs[0].status, WcStatus::kRetryExceeded);
  EXPECT_TRUE(wcs[1].ok());  // the rule is spent
}

TEST_F(FaultInjectionTest, TimeWindowGatesARule) {
  FaultPlan plan;
  FaultRule rule;
  rule.action = FaultAction::kDrop;
  rule.opcode = Opcode::kRead;
  rule.from = Micros(100);
  rule.until = Micros(200);
  plan.Add(rule);
  fabric_.InstallFaultPlan(plan);

  // Before the window: untouched.
  ASSERT_TRUE(client_qp_
                  .PostRead(1, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  sim_.Run();
  // Inside the window: dropped.
  sim_.ScheduleAt(Micros(150), [this] {
    ASSERT_TRUE(client_qp_
                    .PostRead(2, std::span<std::byte>(local_),
                              remote_mr_->remote_addr(), remote_mr_->rkey())
                    .ok());
  });
  // After the window: untouched again.
  sim_.ScheduleAt(Micros(300), [this] {
    ASSERT_TRUE(client_qp_
                    .PostRead(3, std::span<std::byte>(local_),
                              remote_mr_->remote_addr(), remote_mr_->rkey())
                    .ok());
  });
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 3u);
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_EQ(wcs[1].status, WcStatus::kRetryExceeded);
  EXPECT_TRUE(wcs[2].ok());
}

TEST_F(FaultInjectionTest, FailedQpRejectsPostsAndFlushesInFlight) {
  FaultPlan plan;
  plan.FailQpAt(client_qp_.id(), Micros(1));
  fabric_.InstallFaultPlan(plan);

  // In flight across the failure instant: the success completion is
  // converted to a flush error, exactly like a QP draining in error state.
  ASSERT_TRUE(client_qp_
                  .PostRead(1, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, WcStatus::kFlushError);
  EXPECT_EQ(fabric_.fault_stats().flushed_completions, 1u);
  EXPECT_EQ(client_qp_.state(), QpState::kError);

  // New posts are rejected outright.
  const Status s = client_qp_.PostRead(2, std::span<std::byte>(local_),
                                       remote_mr_->remote_addr(),
                                       remote_mr_->rkey());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, CrashedResponderTimesOutInitiators) {
  fabric_.CrashNode(server_.id());
  EXPECT_TRUE(fabric_.IsCrashed(server_.id()));

  ASSERT_TRUE(client_qp_
                  .PostRead(1, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, WcStatus::kRetryExceeded);
  EXPECT_GE(fabric_.fault_stats().dead_target_naks, 1u);
}

TEST_F(FaultInjectionTest, RestartBumpsIncarnationAndAllowsFreshQps) {
  fabric_.CrashNode(client_.id());
  const std::uint32_t before = client_.incarnation();
  fabric_.RestartNode(client_.id());
  EXPECT_FALSE(fabric_.IsCrashed(client_.id()));
  EXPECT_EQ(client_.incarnation(), before + 1);

  // Old QPs stay dead (error state survives the restart)...
  EXPECT_EQ(client_qp_.state(), QpState::kError);
  EXPECT_FALSE(client_qp_
                   .PostRead(1, std::span<std::byte>(local_),
                             remote_mr_->remote_addr(), remote_mr_->rkey())
                   .ok());
  // ...but fresh QPs work.
  auto& cq = client_.CreateCq();
  auto& scq = server_.CreateCq();
  auto& qp = client_.CreateQp(cq, cq);
  auto& sqp = server_.CreateQp(scq, scq);
  fabric_.Connect(qp, sqp);
  ASSERT_TRUE(qp.PostRead(2, std::span<std::byte>(local_),
                          remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  auto wcs = RunAndPoll(cq);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_EQ(local_[0], std::byte{0x5A});
}

TEST_F(FaultInjectionTest, PauseDefersAndResumeReplaysInOrder) {
  fabric_.PauseNode(server_.id());
  ASSERT_TRUE(client_qp_
                  .PostRead(1, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  ASSERT_TRUE(client_qp_
                  .PostRead(2, std::span<std::byte>(local_),
                            remote_mr_->remote_addr(), remote_mr_->rkey())
                  .ok());
  sim_.RunUntil(Millis(1));
  EXPECT_TRUE(client_cq_.Poll(4).empty());  // held at the partition
  EXPECT_GE(fabric_.fault_stats().deferred_ops, 2u);

  fabric_.ResumeNode(server_.id());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 2u);
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_TRUE(wcs[1].ok());
  EXPECT_EQ(wcs[0].wr_id, 1u);  // replayed in arrival order
  EXPECT_EQ(wcs[1].wr_id, 2u);
  EXPECT_EQ(local_[0], std::byte{0x5A});
}

TEST_F(FaultInjectionTest, ResponderCrashWhileQueuedTimesOutQueuedOps) {
  // A healed partition replays every held arrival at once, so the
  // responder's in-NIC queue is deep when the node dies a moment later:
  // the few ops already served complete, queued originals time out at the
  // initiator, and queued duplicate copies just evaporate.
  FaultPlan plan;
  FaultRule rule;
  rule.action = FaultAction::kDuplicate;
  rule.opcode = Opcode::kRead;
  rule.probability = 0.5;
  plan.Add(rule);
  fabric_.InstallFaultPlan(plan);

  constexpr std::size_t kOps = 32;
  fabric_.PauseNode(server_.id());
  for (std::uint64_t i = 0; i < kOps; ++i) ASSERT_TRUE(PostRead(i).ok());
  sim_.RunUntil(Millis(1));
  ASSERT_GT(fabric_.fault_stats().ops_duplicated, 0u);
  fabric_.ResumeNode(server_.id());
  sim_.ScheduleAfter(200, [this] { fabric_.CrashNode(server_.id()); });
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), kOps);
  std::size_t timed_out = 0;
  for (const WorkCompletion& wc : wcs) {
    timed_out += wc.status == WcStatus::kRetryExceeded ? 1 : 0;
  }
  EXPECT_GT(timed_out, 0u);
  EXPECT_LT(timed_out, kOps);  // the crash came mid-queue
  EXPECT_EQ(client_qp_.InFlight(), 0u);
}

TEST_F(FaultInjectionTest, CrashOfAPausedNodeReleasesHeldOps) {
  // Ops held at a partitioned responder (originals and duplicate copies)
  // are released when the node dies: originals time out, copies vanish.
  FaultPlan plan;
  FaultRule rule;
  rule.action = FaultAction::kDuplicate;
  rule.opcode = Opcode::kRead;
  plan.Add(rule);
  fabric_.InstallFaultPlan(plan);

  fabric_.PauseNode(server_.id());
  ASSERT_TRUE(PostRead(1).ok());
  ASSERT_TRUE(PostRead(2).ok());
  sim_.RunUntil(Millis(1));
  EXPECT_EQ(fabric_.LiveOps(), 2u);
  fabric_.CrashNode(server_.id());
  auto wcs = RunAndPoll(client_cq_);
  ASSERT_EQ(wcs.size(), 2u);
  EXPECT_EQ(wcs[0].status, WcStatus::kRetryExceeded);
  EXPECT_EQ(wcs[1].status, WcStatus::kRetryExceeded);
}

TEST_F(FaultInjectionTest, RecordsAreReusedAcrossOps) {
  // Sequential traffic cycles one record: the pool never grows past the
  // peak number of ops in flight.
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(PostRead(i).ok());
    EXPECT_EQ(fabric_.LiveOps(), 1u);
    sim_.Run();
    EXPECT_EQ(fabric_.LiveOps(), 0u);
  }
  EXPECT_EQ(client_cq_.Poll(128).size(), 100u);
}

TEST_F(FaultInjectionTest, ScheduledNodeEventsFireFromThePlan) {
  FaultPlan plan;
  plan.CrashAt(server_.id(), Micros(50)).RestartAt(server_.id(), Micros(90));
  fabric_.InstallFaultPlan(plan);

  int crashes = 0;
  int restarts = 0;
  fabric_.SetNodeFaultHook([&](NodeId, Fabric::NodeFault fault) {
    if (fault == Fabric::NodeFault::kCrash) ++crashes;
    if (fault == Fabric::NodeFault::kRestart) ++restarts;
  });
  sim_.RunUntil(Micros(60));
  EXPECT_TRUE(fabric_.IsCrashed(server_.id()));
  sim_.RunUntil(Micros(100));
  EXPECT_FALSE(fabric_.IsCrashed(server_.id()));
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(restarts, 1);
}

// ---------------------------------------------------------------------------
// Determinism: identical (plan, seed, workload) => identical trace.
// ---------------------------------------------------------------------------

std::string CompletionTrace(std::uint64_t fabric_seed,
                            std::uint64_t plan_seed) {
  sim::Simulator sim;
  Fabric fabric(sim, net::ModelParams{}, fabric_seed);
  Node& server = fabric.AddNode("server", NodeRole::kData);
  Node& client = fabric.AddNode("client");
  auto& cq = client.CreateCq();
  auto& scq = server.CreateCq();
  auto& qp = client.CreateQp(cq, cq);
  auto& sqp = server.CreateQp(scq, scq);
  fabric.Connect(qp, sqp);

  std::vector<std::byte> remote(64, std::byte{0x77});
  const MemoryRegion& mr =
      server.pd().Register(std::span<std::byte>(remote), access::kAll);
  std::vector<std::byte> local(64);
  client.pd().Register(std::span<std::byte>(local),
                       access::kLocalRead | access::kLocalWrite);

  FaultPlan plan;
  plan.seed = plan_seed;
  FaultRule drop;
  drop.action = FaultAction::kDrop;
  drop.probability = 0.3;
  plan.Add(drop);
  FaultRule delay;
  delay.action = FaultAction::kDelay;
  delay.probability = 0.5;
  delay.delay = 2'000;
  plan.Add(delay);
  FaultRule dup;
  dup.action = FaultAction::kDuplicate;
  dup.probability = 0.25;
  dup.opcode = Opcode::kWrite;
  plan.Add(dup);
  fabric.InstallFaultPlan(plan);

  std::ostringstream trace;
  cq.SetNotify([&](const WorkCompletion& wc) {
    trace << wc.wr_id << ':' << ToString(wc.status) << '@' << wc.timestamp
          << ';';
  });

  // A mixed deterministic workload: alternating READs and WRITEs on a
  // fixed schedule.
  for (std::uint64_t i = 0; i < 64; ++i) {
    sim.ScheduleAt(static_cast<SimTime>(i) * Micros(20), [&, i] {
      if (i % 2 == 0) {
        (void)qp.PostRead(i, std::span<std::byte>(local), mr.remote_addr(),
                          mr.rkey());
      } else {
        (void)qp.PostWrite(i, std::span<const std::byte>(local),
                           mr.remote_addr(), mr.rkey());
      }
    });
  }
  sim.Run();
  trace << "|evaluated=" << fabric.injector()->stats().evaluated
        << ",drops=" << fabric.injector()->stats().drops
        << ",delays=" << fabric.injector()->stats().delays
        << ",dups=" << fabric.injector()->stats().duplicates;
  return trace.str();
}

TEST(FaultDeterminism, IdenticalSeedsReproduceTheTraceBitForBit) {
  const std::string a = CompletionTrace(11, 42);
  const std::string b = CompletionTrace(11, 42);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(FaultDeterminism, DifferentPlanSeedsDiverge) {
  // 64 ops × three probabilistic rules: the chance two seeds agree on
  // every draw is negligible.
  const std::string a = CompletionTrace(11, 42);
  const std::string b = CompletionTrace(11, 43);
  EXPECT_NE(a, b);
}

TEST(FaultDeterminism, ProbabilityOneRulesConsumeNoRandomness) {
  // Appending a deterministic (p = 1) rule must not perturb the random
  // draws of the probabilistic rules — only add its own effect. Verify by
  // checking a p=1 delay shifts every completion without changing WHICH
  // ops the probabilistic drop rule hits.
  auto drops_of = [](bool with_deterministic_delay) {
    sim::Simulator sim;
    Fabric fabric(sim, net::ModelParams{}, 5);
    Node& server = fabric.AddNode("server", NodeRole::kData);
    Node& client = fabric.AddNode("client");
    auto& cq = client.CreateCq();
    auto& scq = server.CreateCq();
    auto& qp = client.CreateQp(cq, cq);
    auto& sqp = server.CreateQp(scq, scq);
    fabric.Connect(qp, sqp);
    std::vector<std::byte> remote(64);
    const MemoryRegion& mr =
        server.pd().Register(std::span<std::byte>(remote), access::kAll);
    std::vector<std::byte> local(64);
    client.pd().Register(std::span<std::byte>(local),
                         access::kLocalRead | access::kLocalWrite);

    FaultPlan plan;
    plan.seed = 1234;
    if (with_deterministic_delay) {
      FaultRule delay;
      delay.action = FaultAction::kDelay;
      delay.delay = 1'000;  // p = 1: no randomness consumed
      plan.Add(delay);
    }
    FaultRule drop;
    drop.action = FaultAction::kDrop;
    drop.probability = 0.4;
    plan.Add(drop);
    fabric.InstallFaultPlan(plan);

    std::vector<std::uint64_t> dropped;
    cq.SetNotify([&](const WorkCompletion& wc) {
      if (wc.status == WcStatus::kRetryExceeded) dropped.push_back(wc.wr_id);
    });
    for (std::uint64_t i = 0; i < 48; ++i) {
      sim.ScheduleAt(static_cast<SimTime>(i) * Micros(20), [&, i] {
        (void)qp.PostRead(i, std::span<std::byte>(local), mr.remote_addr(),
                          mr.rkey());
      });
    }
    sim.Run();
    return dropped;
  };

  EXPECT_EQ(drops_of(false), drops_of(true));
}

}  // namespace
}  // namespace haechi::rdma
