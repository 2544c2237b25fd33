// Failure-injection tests: the QoS protocol under broken wiring, revoked
// memory registrations, and hostile conditions. The engine must degrade
// (reservation-only service, error completions) without crashing, stalling
// the simulator, or corrupting token accounting.
#include <gtest/gtest.h>

#include <cstring>

#include "core/engine.hpp"
#include "core/wire.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace haechi::core {
namespace {

class ResilienceTest : public ::testing::Test {
 protected:
  ResilienceTest()
      : fabric_(sim_, MakeParams(), 17),
        server_(fabric_.AddNode("server", rdma::NodeRole::kData)),
        client_(fabric_.AddNode("client")),
        control_block_(16 * sizeof(std::uint64_t)) {
    control_mr_ = &server_.pd().Register(
        std::span<std::byte>(control_block_),
        rdma::access::kLocalRead | rdma::access::kLocalWrite |
            rdma::access::kRemoteRead | rdma::access::kRemoteWrite |
            rdma::access::kRemoteAtomic);
    config_.token_batch = 10;
  }

  static net::ModelParams MakeParams() {
    net::ModelParams params;
    params.capacity_scale = 0.02;
    return params;
  }

  /// Builds an engine wired to the control block, with an instant backend.
  std::unique_ptr<ClientQosEngine> MakeEngine(QosWiring wiring) {
    auto& qos_cq = client_.CreateCq();
    auto& qos_srv_cq = server_.CreateCq();
    auto& qos_qp = client_.CreateQp(qos_cq, qos_cq);
    auto& qos_srv_qp = server_.CreateQp(qos_srv_cq, qos_srv_cq);
    fabric_.Connect(qos_qp, qos_srv_qp);
    auto& ctrl_cq = client_.CreateCq();
    auto& ctrl_recv = client_.CreateCq();
    auto& mon_cq = server_.CreateCq();
    auto& ctrl_qp = client_.CreateQp(ctrl_cq, ctrl_recv);
    monitor_qp_ = &server_.CreateQp(mon_cq, mon_cq);
    mon_cq.SetNotify([](const rdma::WorkCompletion&) {});
    fabric_.Connect(ctrl_qp, *monitor_qp_);
    auto engine = std::make_unique<ClientQosEngine>(
        sim_, MakeClientId(0), config_, client_, qos_qp, ctrl_qp, wiring);
    engine->SetIoBackend(
        [this](std::uint64_t, bool, ClientQosEngine::IoDone done) {
          ++backend_calls_;
          sim_.ScheduleAfter(Micros(1), [done] { done(); });
          return Status::Ok();
        });
    return engine;
  }

  QosWiring GoodWiring() const {
    QosWiring wiring;
    wiring.global_pool_addr = control_mr_->remote_addr();
    wiring.global_pool_rkey = control_mr_->rkey();
    wiring.report_slot_addr =
        control_mr_->remote_addr() + sizeof(std::uint64_t);
    wiring.report_slot_rkey = control_mr_->rkey();
    return wiring;
  }

  void SendPeriodStart(std::uint32_t period, std::int64_t tokens) {
    PeriodStartMsg msg;
    msg.period = period;
    msg.reservation_tokens = tokens;
    ASSERT_TRUE(monitor_qp_
                    ->PostSend(1, std::span<const std::byte>(
                                      reinterpret_cast<const std::byte*>(&msg),
                                      sizeof(msg)))
                    .ok());
  }

  void SendReportRequest(std::uint32_t period) {
    ReportRequestMsg msg;
    msg.period = period;
    ASSERT_TRUE(monitor_qp_
                    ->PostSend(2, std::span<const std::byte>(
                                      reinterpret_cast<const std::byte*>(&msg),
                                      sizeof(msg)))
                    .ok());
  }

  sim::Simulator sim_;
  rdma::Fabric fabric_;
  rdma::Node& server_;
  rdma::Node& client_;
  std::vector<std::byte> control_block_;
  const rdma::MemoryRegion* control_mr_ = nullptr;
  rdma::QueuePair* monitor_qp_ = nullptr;
  QosConfig config_;
  int backend_calls_ = 0;
};

TEST_F(ResilienceTest, BadPoolRkeyDegradesToReservationOnlyService) {
  QosWiring wiring = GoodWiring();
  wiring.global_pool_rkey = 0xdead;  // FAAs will NAK
  auto engine = MakeEngine(wiring);
  SendPeriodStart(1, /*tokens=*/5);
  for (int i = 0; i < 10; ++i) engine->Submit(0, [] {});
  sim_.RunUntil(Millis(100));
  // Reservation-backed I/Os complete; pool-backed demand stays queued.
  EXPECT_EQ(backend_calls_, 5);
  EXPECT_EQ(engine->stats().tokens_from_pool, 0);
  EXPECT_EQ(engine->QueueDepth(), 5u);
  // Fresh tokens next period resume service: no wedged state.
  SendPeriodStart(2, /*tokens=*/5);
  sim_.RunUntil(Millis(200));
  EXPECT_EQ(backend_calls_, 10);
}

TEST_F(ResilienceTest, PoolMrRevokedMidRun) {
  auto engine = MakeEngine(GoodWiring());
  std::uint64_t pool = 1000;
  std::memcpy(control_block_.data(), &pool, sizeof(pool));
  SendPeriodStart(1, /*tokens=*/2);
  for (int i = 0; i < 6; ++i) engine->Submit(0, [] {});
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(backend_calls_, 6);  // 2 reserved + 4 pool
  // The data node revokes the control MR (e.g. restart): subsequent FAAs
  // and report writes fail as error completions, not crashes.
  ASSERT_TRUE(server_.pd().Deregister(control_mr_->rkey()).ok());
  SendReportRequest(1);
  for (int i = 0; i < 4; ++i) engine->Submit(0, [] {});
  sim_.RunUntil(Millis(50));
  // Local batch left over from the pre-revocation FAA (10 - 4 = 6 tokens)
  // still serves 4 more I/Os.
  EXPECT_EQ(backend_calls_, 10);
  EXPECT_GE(engine->stats().report_writes, 1u);  // posted, completed in error
}

TEST_F(ResilienceTest, GarbageControlMessagesAreIgnored) {
  auto engine = MakeEngine(GoodWiring());
  // An unknown message type must not crash or change engine state.
  const std::uint32_t bogus_type = 0x7777;
  std::byte raw[32] = {};
  std::memcpy(raw, &bogus_type, sizeof(bogus_type));
  ASSERT_TRUE(
      monitor_qp_->PostSend(9, std::span<const std::byte>(raw, sizeof(raw)))
          .ok());
  sim_.RunUntil(Millis(1));
  EXPECT_EQ(engine->CurrentPeriod(), 0u);
  // Protocol proceeds normally afterwards.
  SendPeriodStart(1, /*tokens=*/3);
  engine->Submit(0, [] {});
  sim_.RunUntil(Millis(2));
  EXPECT_EQ(backend_calls_, 1);
}

TEST_F(ResilienceTest, ZeroReservationClientIsPoolOnly) {
  std::uint64_t pool = 100;
  std::memcpy(control_block_.data(), &pool, sizeof(pool));
  auto engine = MakeEngine(GoodWiring());
  SendPeriodStart(1, /*tokens=*/0);
  for (int i = 0; i < 5; ++i) engine->Submit(0, [] {});
  sim_.RunUntil(Millis(10));
  EXPECT_EQ(backend_calls_, 5);
  EXPECT_EQ(engine->stats().tokens_from_reservation, 0);
  EXPECT_EQ(engine->stats().tokens_from_pool, 5);
}

TEST_F(ResilienceTest, BackendErrorsSurfaceAsPrecondition) {
  auto engine = MakeEngine(GoodWiring());
  // Replace the backend with one that always reports "saturated" — the
  // engine's outstanding cap makes this a wiring bug, which it asserts on
  // rather than spinning. Here we only verify the documented contract that
  // submissions before PeriodStart queue without invoking the backend.
  int calls = 0;
  engine->SetIoBackend(
      [&calls](std::uint64_t, bool, ClientQosEngine::IoDone) {
        ++calls;
        return ErrResourceExhausted("always full");
      });
  engine->Submit(0, [] {});
  sim_.RunUntil(Millis(1));
  EXPECT_EQ(calls, 0);  // no tokens yet -> backend untouched
}

TEST_F(ResilienceTest, FaaRetryBackoffRecoversThroughADropWindow) {
  // The fabric drops every token FAA for the first 10 ms. The engine must
  // back off exponentially (not spin), then recover the moment the window
  // closes and serve the queued pool-backed demand.
  rdma::FaultPlan plan;
  rdma::FaultRule drop_faa;
  drop_faa.action = rdma::FaultAction::kDrop;
  drop_faa.opcode = rdma::Opcode::kFetchAdd;
  drop_faa.until = Millis(10);
  plan.Add(drop_faa);
  fabric_.InstallFaultPlan(plan);

  std::uint64_t pool = 1000;
  std::memcpy(control_block_.data(), &pool, sizeof(pool));
  auto engine = MakeEngine(GoodWiring());
  SendPeriodStart(1, /*tokens=*/2);
  for (int i = 0; i < 8; ++i) engine->Submit(0, [] {});

  sim_.RunUntil(Millis(5));
  // Mid-window: reservation-backed I/Os done, pool demand blocked, at
  // least one failed fetch and one backoff retry behind us.
  EXPECT_EQ(backend_calls_, 2);
  EXPECT_GE(engine->stats().faa_failures, 1u);
  EXPECT_GE(engine->stats().faa_retries, 1u);

  sim_.RunUntil(Millis(100));
  // Window closed: a backoff retry landed, one FAA fetched the batch, and
  // the whole queue drained.
  EXPECT_EQ(backend_calls_, 8);
  EXPECT_EQ(engine->stats().tokens_from_pool, 6);
  EXPECT_EQ(engine->QueueDepth(), 0u);
  EXPECT_GE(engine->stats().faa_failures, 2u);
  EXPECT_GE(engine->stats().faa_retries, 2u);
  EXPECT_GE(fabric_.fault_stats().ops_dropped, 2u);
}

TEST_F(ResilienceTest, ReportWriteFailuresAreCountedNotFatal) {
  QosWiring wiring = GoodWiring();
  wiring.report_slot_rkey = 0xbeef;  // report WRITEs will NAK
  std::uint64_t pool = 1000;
  std::memcpy(control_block_.data(), &pool, sizeof(pool));
  auto engine = MakeEngine(wiring);
  SendPeriodStart(1, /*tokens=*/3);
  for (int i = 0; i < 3; ++i) engine->Submit(0, [] {});
  sim_.RunUntil(Millis(1));
  SendReportRequest(1);
  sim_.RunUntil(Millis(6));
  // Reports were posted on the 1 ms cadence, every one completed in error,
  // and the engine neither crashed nor stopped serving.
  EXPECT_GE(engine->stats().report_writes, 2u);
  EXPECT_GE(engine->stats().report_failures, 2u);
  EXPECT_EQ(backend_calls_, 3);
  // The data path is untouched: a further submit rides pool tokens (only
  // the report slot's rkey is broken).
  engine->Submit(0, [] {});
  sim_.RunUntil(Millis(8));
  EXPECT_EQ(backend_calls_, 4);
  EXPECT_EQ(engine->stats().tokens_from_pool, 1);
}

TEST_F(ResilienceTest, MonitorSilenceEntersBoundedDegradedModeAndResyncs) {
  auto engine = MakeEngine(GoodWiring());
  // Period 1 provisions 5 reservation tokens; the pool word is zero, so
  // service is reservation-paced from the start.
  SendPeriodStart(1, /*tokens=*/5);
  for (int i = 0; i < 60; ++i) engine->Submit(0, [] {});
  sim_.RunUntil(Millis(100));
  EXPECT_EQ(backend_calls_, 5);
  EXPECT_FALSE(engine->Degraded());

  // The monitor goes silent. The degraded grace (1.5 periods from the
  // period-1 boundary) trips at t=1.5 s and immediately self-issues the
  // first synthetic reservation-only period.
  sim_.RunUntil(Seconds(1) + Millis(600));
  EXPECT_TRUE(engine->Degraded());
  EXPECT_EQ(engine->stats().degraded_entries, 1u);
  EXPECT_EQ(backend_calls_, 10);

  // Synthetic periods keep the real cadence and stop at the bound: no
  // unbounded free service from a dead control plane.
  sim_.RunUntil(Seconds(12));
  EXPECT_TRUE(engine->Degraded());
  EXPECT_EQ(engine->stats().degraded_periods, config_.degraded_max_periods);
  EXPECT_EQ(backend_calls_,
            5 + 5 * static_cast<int>(config_.degraded_max_periods));

  // The monitor returns. Re-sync exits degraded mode, sheds the queue
  // backlog beyond recovery_backlog_periods * reservation (10 of the 15
  // still queued), and serves the fresh split — bounded recovery, not a
  // burst of the entire outage's backlog.
  SendPeriodStart(2, /*tokens=*/5);
  sim_.RunUntil(Seconds(13));
  EXPECT_FALSE(engine->Degraded());
  EXPECT_EQ(backend_calls_,
            10 + 5 * static_cast<int>(config_.degraded_max_periods));
  EXPECT_EQ(engine->QueueDepth(), 0u);
}

TEST_F(ResilienceTest, StopQuiescesQueueAndTimers) {
  QosWiring wiring = GoodWiring();
  wiring.global_pool_rkey = 0xdead;  // pool fetches fail -> demand queues
  auto engine = MakeEngine(wiring);
  SendPeriodStart(1, /*tokens=*/2);
  for (int i = 0; i < 6; ++i) engine->Submit(0, [] {});
  sim_.RunUntil(Millis(2));
  EXPECT_EQ(backend_calls_, 2);
  EXPECT_EQ(engine->QueueDepth(), 4u);
  EXPECT_GE(engine->stats().faa_failures, 1u);

  // Crash handling calls Stop(): the backlog is shed, timers stop, and no
  // pending backoff retry fires work afterwards.
  engine->Stop();
  EXPECT_EQ(engine->QueueDepth(), 0u);
  sim_.RunUntil(Millis(200));
  EXPECT_EQ(backend_calls_, 2);
}

}  // namespace
}  // namespace haechi::core
