// Direct unit tests of ClientQosEngine against a hand-rolled mock monitor:
// the test owns the control QP and the pool/report words, crafting exact
// protocol situations (stale token fetches, report tags, limit edges) that
// the full harness cannot time precisely.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "core/engine.hpp"
#include "core/wire.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace haechi::core {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : fabric_(sim_, MakeParams(), 5),
        server_(fabric_.AddNode("server", rdma::NodeRole::kData)),
        client_(fabric_.AddNode("client")),
        control_block_(16 * sizeof(std::uint64_t)),
        qos_cq_(client_.CreateCq()),
        qos_srv_cq_(server_.CreateCq()),
        ctrl_cq_(client_.CreateCq()),
        ctrl_recv_cq_(client_.CreateCq()),
        monitor_cq_(server_.CreateCq()),
        qos_qp_(client_.CreateQp(qos_cq_, qos_cq_)),
        qos_srv_qp_(server_.CreateQp(qos_srv_cq_, qos_srv_cq_)),
        ctrl_qp_(client_.CreateQp(ctrl_cq_, ctrl_recv_cq_)),
        monitor_qp_(server_.CreateQp(monitor_cq_, monitor_cq_)) {
    fabric_.Connect(qos_qp_, qos_srv_qp_);
    fabric_.Connect(ctrl_qp_, monitor_qp_);
    control_mr_ = &server_.pd().Register(
        std::span<std::byte>(control_block_),
        rdma::access::kLocalRead | rdma::access::kLocalWrite |
            rdma::access::kRemoteRead | rdma::access::kRemoteWrite |
            rdma::access::kRemoteAtomic);
    monitor_cq_.SetNotify([](const rdma::WorkCompletion&) {});

    config_.token_batch = 10;
    config_.max_backend_outstanding = 1u << 20;

    QosWiring wiring;
    wiring.global_pool_addr = control_mr_->remote_addr();
    wiring.global_pool_rkey = control_mr_->rkey();
    wiring.report_slot_addr =
        control_mr_->remote_addr() + sizeof(std::uint64_t);
    wiring.report_slot_rkey = control_mr_->rkey();
    engine_ = std::make_unique<ClientQosEngine>(
        sim_, MakeClientId(0), config_, client_, qos_qp_, ctrl_qp_, wiring);
    engine_->SetIoBackend(
        [this](std::uint64_t, bool, ClientQosEngine::IoDone done) {
          // An instant backend: completes one simulated microsecond later.
          ++backend_calls_;
          sim_.ScheduleAfter(Micros(1), [done] { done(); });
          return Status::Ok();
        });
  }

  static net::ModelParams MakeParams() {
    net::ModelParams params;
    params.capacity_scale = 0.02;
    return params;
  }

  void SetPool(std::int64_t tokens) {
    const auto raw = static_cast<std::uint64_t>(tokens);
    std::memcpy(control_block_.data(), &raw, sizeof(raw));
  }
  std::int64_t Pool() const {
    std::uint64_t raw;
    std::memcpy(&raw, control_block_.data(), sizeof(raw));
    return static_cast<std::int64_t>(raw);
  }
  std::uint64_t ReportSlot() const {
    std::uint64_t raw;
    std::memcpy(&raw, control_block_.data() + sizeof(std::uint64_t),
                sizeof(raw));
    return raw;
  }

  void SendPeriodStart(std::uint32_t period, std::int64_t tokens,
                       std::int64_t limit = 0) {
    PeriodStartMsg msg;
    msg.period = period;
    msg.reservation_tokens = tokens;
    msg.limit = limit;
    ASSERT_TRUE(monitor_qp_
                    .PostSend(1, std::span<const std::byte>(
                                     reinterpret_cast<const std::byte*>(&msg),
                                     sizeof(msg)))
                    .ok());
  }

  void SendReportRequest(std::uint32_t period) {
    ReportRequestMsg msg;
    msg.period = period;
    ASSERT_TRUE(monitor_qp_
                    .PostSend(2, std::span<const std::byte>(
                                     reinterpret_cast<const std::byte*>(&msg),
                                     sizeof(msg)))
                    .ok());
  }

  // Completion callbacks fire from simulator events long after SubmitMany
  // returns, so the counter must outlive the call frame.
  void SubmitMany(int n) {
    for (int i = 0; i < n; ++i) {
      const Status s = engine_->Submit(0, [this] { ++submit_completed_; });
      if (!s.ok()) break;
    }
  }

  sim::Simulator sim_;
  rdma::Fabric fabric_;
  rdma::Node& server_;
  rdma::Node& client_;
  std::vector<std::byte> control_block_;
  const rdma::MemoryRegion* control_mr_ = nullptr;
  rdma::CompletionQueue& qos_cq_;
  rdma::CompletionQueue& qos_srv_cq_;
  rdma::CompletionQueue& ctrl_cq_;
  rdma::CompletionQueue& ctrl_recv_cq_;
  rdma::CompletionQueue& monitor_cq_;
  rdma::QueuePair& qos_qp_;
  rdma::QueuePair& qos_srv_qp_;
  rdma::QueuePair& ctrl_qp_;
  rdma::QueuePair& monitor_qp_;
  QosConfig config_;
  std::unique_ptr<ClientQosEngine> engine_;
  int backend_calls_ = 0;
  int submit_completed_ = 0;
};

TEST_F(EngineTest, NothingIssuesBeforeFirstPeriod) {
  engine_->Submit(0, [] {});
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(backend_calls_, 0);
  EXPECT_EQ(engine_->QueueDepth(), 1u);
  EXPECT_EQ(engine_->CurrentPeriod(), 0u);
}

TEST_F(EngineTest, PeriodStartReleasesQueuedWork) {
  engine_->Submit(0, [] {});
  engine_->Submit(1, [] {});
  SendPeriodStart(1, /*tokens=*/5);
  sim_.RunUntil(Millis(1));
  EXPECT_EQ(backend_calls_, 2);
  EXPECT_EQ(engine_->CurrentPeriod(), 1u);
  EXPECT_EQ(engine_->ReservationTokens(), 3);
  EXPECT_EQ(engine_->stats().tokens_from_reservation, 2);
}

TEST_F(EngineTest, SubmitWithoutBackendFails) {
  ClientQosEngine bare(sim_, MakeClientId(1), config_, client_, qos_qp_,
                       ctrl_qp_, QosWiring{});
  EXPECT_EQ(bare.Submit(0, [] {}).code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, QueueBoundRejects) {
  QosConfig tiny = config_;
  tiny.max_engine_queue = 2;
  // Rebuild the engine with the tiny queue (fresh QPs to avoid CQ clashes).
  auto& cq_a = client_.CreateCq();
  auto& cq_b = server_.CreateCq();
  auto& qp_a = client_.CreateQp(cq_a, cq_a);
  auto& qp_b = server_.CreateQp(cq_b, cq_b);
  fabric_.Connect(qp_a, qp_b);
  auto& ctrl_a_cq = client_.CreateCq();
  auto& ctrl_a_recv = client_.CreateCq();
  auto& ctrl_b_cq = server_.CreateCq();
  auto& ctrl_a = client_.CreateQp(ctrl_a_cq, ctrl_a_recv);
  auto& ctrl_b = server_.CreateQp(ctrl_b_cq, ctrl_b_cq);
  fabric_.Connect(ctrl_a, ctrl_b);
  ClientQosEngine engine(sim_, MakeClientId(2), tiny, client_, qp_a, ctrl_a,
                         QosWiring{});
  engine.SetIoBackend(
      [](std::uint64_t, bool, ClientQosEngine::IoDone) {
        return Status::Ok();
      });
  EXPECT_TRUE(engine.Submit(0, [] {}).ok());
  EXPECT_TRUE(engine.Submit(1, [] {}).ok());
  EXPECT_EQ(engine.Submit(2, [] {}).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().rejected_submits, 1u);
}

TEST_F(EngineTest, ExhaustedReservationDrawsFromPool) {
  SetPool(100);
  SendPeriodStart(1, /*tokens=*/3);
  SubmitMany(8);
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(backend_calls_, 8);
  EXPECT_EQ(engine_->stats().tokens_from_reservation, 3);
  EXPECT_EQ(engine_->stats().tokens_from_pool, 5);
  // One batched FAA of B=10 sufficed; its leftover tokens stay local.
  EXPECT_EQ(engine_->stats().faa_ops, 1u);
  EXPECT_EQ(engine_->PoolTokens(), 5);
  EXPECT_EQ(Pool(), 90);
}

TEST_F(EngineTest, EmptyPoolMakesClientWait) {
  SetPool(0);
  SendPeriodStart(1, /*tokens=*/1);
  SubmitMany(3);
  sim_.RunUntil(Millis(50));
  EXPECT_EQ(backend_calls_, 1);  // reservation only
  EXPECT_EQ(engine_->QueueDepth(), 2u);
  // Retries happen at the pool_retry_interval cadence, not a busy loop.
  EXPECT_LT(engine_->stats().faa_ops, 60u);
  // Tokens appear (monitor conversion): the client resumes.
  SetPool(50);
  sim_.RunUntil(Millis(60));
  EXPECT_EQ(backend_calls_, 3);
}

TEST_F(EngineTest, StaleTokenFetchIsDiscardedAcrossPeriods) {
  SetPool(100);
  SendPeriodStart(1, /*tokens=*/0);
  engine_->Submit(0, [] {});  // forces a FAA
  // Let the FAA get posted but roll the period before its completion
  // returns (client NIC + 2 links + atomic ≈ 5 µs).
  sim_.RunUntil(sim_.Now() + Micros(2));
  SendPeriodStart(2, /*tokens=*/0);
  sim_.RunUntil(Millis(10));
  // Two fetches hit the pool word (10 tokens each), but the first batch
  // belonged to period 1 and was discarded: only the second funds I/O.
  EXPECT_GE(engine_->stats().faa_ops, 2u);
  EXPECT_EQ(Pool(), 80);
  EXPECT_EQ(backend_calls_, 1);
  EXPECT_EQ(engine_->PoolTokens(), 9);  // 10 fetched, 1 consumed
  EXPECT_EQ(engine_->stats().tokens_from_pool, 1);
}

TEST_F(EngineTest, LimitIsExactPerPeriod) {
  SetPool(1000);
  SendPeriodStart(1, /*tokens=*/100, /*limit=*/4);
  SubmitMany(10);
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(backend_calls_, 4);
  EXPECT_GT(engine_->stats().limit_throttle_events, 0u);
  // A new period resets the throttle.
  SendPeriodStart(2, /*tokens=*/100, /*limit=*/4);
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(backend_calls_, 8);
}

TEST_F(EngineTest, ReportsCarryPeriodTagAndClaims) {
  SendPeriodStart(3, /*tokens=*/50);
  SubmitMany(20);
  SendReportRequest(3);
  sim_.RunUntil(Millis(3));
  const std::uint64_t slot = ReportSlot();
  EXPECT_EQ(ReportPeriod(slot), 3u);
  EXPECT_EQ(ReportCompleted(slot), 20u);
  // Claims = unconsumed tokens (30) + nothing in flight.
  EXPECT_EQ(ReportResidual(slot), 30u);
  EXPECT_TRUE(engine_->Reporting());
  EXPECT_GT(engine_->stats().report_writes, 0u);
  // Reporting stops at the next period start.
  SendPeriodStart(4, /*tokens=*/50);
  sim_.RunUntil(Millis(4));
  EXPECT_FALSE(engine_->Reporting());
}

TEST_F(EngineTest, IdleTokensDecayLinearly) {
  SendPeriodStart(1, /*tokens=*/1000);
  sim_.RunUntil(Millis(1) + Millis(500));  // half the period
  EXPECT_NEAR(static_cast<double>(engine_->ReservationTokens()), 500, 10);
  sim_.RunUntil(Millis(1) + Millis(999));
  EXPECT_LE(engine_->ReservationTokens(), 2);
}

TEST_F(EngineTest, OverReserveHintIsCounted) {
  OverReserveHintMsg msg;
  msg.consecutive_periods = 5;
  ASSERT_TRUE(monitor_qp_
                  .PostSend(3, std::span<const std::byte>(
                                   reinterpret_cast<const std::byte*>(&msg),
                                   sizeof(msg)))
                  .ok());
  sim_.Run();
  EXPECT_EQ(engine_->stats().over_reserve_hints, 1u);
}

TEST_F(EngineTest, WritesFlowThroughTheSameTokenPath) {
  int writes_seen = 0;
  engine_->SetIoBackend(
      [this, &writes_seen](std::uint64_t, bool is_write,
                           ClientQosEngine::IoDone done) {
        writes_seen += is_write;
        sim_.ScheduleAfter(Micros(1), [done] { done(); });
        return Status::Ok();
      });
  SendPeriodStart(1, /*tokens=*/10);
  engine_->Submit(0, [] {}, /*is_write=*/true);
  engine_->Submit(1, [] {}, /*is_write=*/false);
  engine_->Submit(2, [] {}, /*is_write=*/true);
  sim_.RunUntil(Millis(2));
  EXPECT_EQ(writes_seen, 2);
  EXPECT_EQ(engine_->stats().tokens_from_reservation, 3);
}

}  // namespace
}  // namespace haechi::core
