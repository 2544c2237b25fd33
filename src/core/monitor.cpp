#include "core/monitor.hpp"

#include <cstring>
#include <span>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace haechi::core {

QosMonitor::QosMonitor(sim::Simulator& sim, const QosConfig& config,
                       rdma::Node& node, double profiled_global_iops,
                       double profiled_local_iops)
    : MonitorCore(*this, config, profiled_global_iops, profiled_local_iops),
      sim_(sim),
      node_(node) {
  control_block_.resize((1 + kMaxClients) * sizeof(std::uint64_t));
  control_mr_ = &node_.pd().Register(
      std::span<std::byte>(control_block_),
      rdma::access::kLocalRead | rdma::access::kLocalWrite |
          rdma::access::kRemoteRead | rdma::access::kRemoteWrite |
          rdma::access::kRemoteAtomic);

  if (config.loopback_cas) {
    // The monitor observes the pool word through the NIC, as the paper
    // describes: a loopback RC connection on the data node itself.
    auto& cq_a = node_.CreateCq();
    auto& cq_b = node_.CreateCq();
    loop_qp_ = &node_.CreateQp(cq_a, cq_a);
    loop_peer_qp_ = &node_.CreateQp(cq_b, cq_b);
    node_.fabric().Connect(*loop_qp_, *loop_peer_qp_);
    cq_a.SetNotify([this](const rdma::WorkCompletion& wc) {
      loop_cas_in_flight_ = false;
      if (wc.ok()) {
        loop_observed_pool_ = static_cast<std::int64_t>(wc.atomic_result);
      }
    });
  }

  period_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config.period, [this] {
        if (running_) StartPeriod();
      });
  check_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, config.check_interval, [this] {
        if (running_) CheckTick();
      });
}

std::int64_t QosMonitor::ReadPoolWord() const {
  std::uint64_t raw;
  std::memcpy(&raw, control_block_.data(), sizeof(raw));
  return static_cast<std::int64_t>(raw);
}

MonitorPort::PoolTouch QosMonitor::WritePoolWord(std::int64_t value) {
  const PoolTouch seen = SamplePool();
  const auto raw = static_cast<std::uint64_t>(value);
  std::memcpy(control_block_.data(), &raw, sizeof(raw));
  last_pool_ = value;
  return seen;
}

std::uint64_t QosMonitor::ReadSlot(std::size_t slot) const {
  std::uint64_t raw;
  std::memcpy(&raw, control_block_.data() + (1 + slot) * sizeof(raw),
              sizeof(raw));
  return raw;
}

void QosMonitor::PrimeSlot(std::size_t slot, std::uint64_t packed) {
  std::memcpy(control_block_.data() + (1 + slot) * sizeof(packed), &packed,
              sizeof(packed));
}

MonitorPort::PoolTouch QosMonitor::SamplePool() {
  const std::int64_t raw = ReadPoolWord();
  const PoolTouch seen{raw, last_pool_ - raw};
  last_pool_ = raw;
  return seen;
}

std::int64_t QosMonitor::ObservePool(std::int64_t sampled) {
  if (!config().loopback_cas) return sampled;
  if (!loop_cas_in_flight_) {
    // CAS(0, 0): reads the word through the NIC without disturbing it (a
    // compare that can only "succeed" by writing the value it found). Its
    // completion refreshes the observation a later tick sees.
    const Status s = loop_qp_->PostCompareSwap(
        next_wr_id_++, control_mr_->remote_addr(), control_mr_->rkey(),
        /*expected=*/0, /*desired=*/0);
    loop_cas_in_flight_ = s.ok();
  }
  return loop_observed_pool_;
}

MonitorPort::PoolTouch QosMonitor::ExchangePool(std::int64_t value) {
  // A monitor-installed value is known without a NIC round trip.
  loop_observed_pool_ = value;
  return WritePoolWord(value);
}

MonitorPort::PoolTouch QosMonitor::InstallPool(std::int64_t value) {
  // The simulator is single-threaded: nothing races the write.
  return WritePoolWord(value);
}

void QosMonitor::Deliver(Channel channel, ClientId client,
                         const ControlMsg& msg) {
  auto* qp = static_cast<rdma::QueuePair*>(channel);
  std::visit(
      [&](const auto& m) {
        const Status s = qp->PostSend(
            next_wr_id_++,
            std::span<const std::byte>(reinterpret_cast<const std::byte*>(&m),
                                       sizeof(m)));
        if (!s.ok()) {
          HAECHI_LOG_WARN("monitor: ctrl send to client %u failed: %s",
                          Raw(client), s.ToString().c_str());
        }
      },
      msg);
}

void QosMonitor::Emit([[maybe_unused]] obs::ActorKind kind,
                      [[maybe_unused]] obs::EventType type,
                      [[maybe_unused]] std::uint32_t period,
                      [[maybe_unused]] std::int64_t a,
                      [[maybe_unused]] std::int64_t b,
                      [[maybe_unused]] std::int64_t c) {
  HAECHI_TRACE_EVENT(kind, trace_actor_, type, period, a, b, c);
}

Result<QosWiring> QosMonitor::AdmitClient(ClientId client,
                                          std::int64_t reservation,
                                          std::int64_t limit,
                                          rdma::QueuePair& ctrl_qp) {
  auto slot = MonitorCore::AdmitClient(client, reservation, limit, &ctrl_qp);
  if (!slot.ok()) return slot.status();
  ctrl_qp.send_cq().SetNotify([](const rdma::WorkCompletion&) {});

  QosWiring wiring;
  wiring.global_pool_addr = control_mr_->remote_addr();
  wiring.global_pool_rkey = control_mr_->rkey();
  wiring.report_slot_addr =
      control_mr_->remote_addr() + (1 + slot.value()) * sizeof(std::uint64_t);
  wiring.report_slot_rkey = control_mr_->rkey();
  return wiring;
}

void QosMonitor::StartTimers() {
  period_timer_->Start();
  check_timer_->Start();
}

void QosMonitor::Start(SimTime at) {
  HAECHI_EXPECTS(!running_);
  running_ = true;
  sim_.ScheduleAt(at, [this] {
    if (!running_) return;
    StartPeriod();
    StartTimers();
  });
}

void QosMonitor::Stop() {
  running_ = false;
  period_timer_->Stop();
  check_timer_->Stop();
}

void QosMonitor::Crash() {
  if (!MonitorCore::Crash()) return;
  Stop();
}

void QosMonitor::Recover(SimTime at) {
  HAECHI_EXPECTS(Crashed());
  running_ = true;
  sim_.ScheduleAt(at, [this] {
    if (!running_ || !Crashed()) return;
    MonitorCore::Recover();
    StartTimers();
  });
}

}  // namespace haechi::core
