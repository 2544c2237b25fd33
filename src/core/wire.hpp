// Wire formats shared by the client QoS engine and the data-node QoS
// monitor.
//
// Control traffic is two-sided (SENDs from the monitor); the data-plane
// QoS state is one-sided:
//   - the global token pool is a single signed 64-bit word clients FAA;
//   - each client owns a 64-bit report slot it overwrites with a silent
//     one-sided WRITE: {period:12 | seq:8 | residual:22 | completed:22}.
#pragma once

#include <cstdint>
#include <variant>

#include "common/types.hpp"
#include "rdma/verbs.hpp"

namespace haechi::core {

enum class CtrlType : std::uint32_t {
  kPeriodStart = 1,   // monitor -> engine: new period, fresh tokens
  kReportRequest = 2, // monitor -> engine: begin periodic reporting
  kOverReserveHint = 3, // monitor -> engine: reservation looks oversized
  kRecoverySync = 4,  // monitor -> engine: post-restart handshake; the
                      // engine answers with an immediate report WRITE so
                      // the recovered monitor sees a live slot before it
                      // resumes boundary sweeps
};

/// Monitor -> engine at each period boundary (paper step T1). Doubles as
/// the period-start synchronisation signal.
struct PeriodStartMsg {
  CtrlType type = CtrlType::kPeriodStart;
  std::uint32_t period = 0;
  /// Fresh reservation tokens R_i (replace any leftover tokens).
  std::int64_t reservation_tokens = 0;
  /// Per-period I/O limit L_i (<= 0 means unlimited).
  std::int64_t limit = 0;
};

/// Monitor -> engine when reservation-token overflow is detected (step S3).
struct ReportRequestMsg {
  CtrlType type = CtrlType::kReportRequest;
  std::uint32_t period = 0;
};

/// Monitor -> engine advisory after persistent reservation underuse.
struct OverReserveHintMsg {
  CtrlType type = CtrlType::kOverReserveHint;
  std::uint32_t consecutive_periods = 0;
};

/// Monitor -> engine after a monitor restart (DESIGN.md §15). Not a period
/// boundary: the engine keeps its current tokens and period counter and
/// simply proves liveness with a fresh report write. Degraded clients stay
/// degraded until the first real kPeriodStart re-provisions them.
struct RecoverySyncMsg {
  CtrlType type = CtrlType::kRecoverySync;
  std::uint32_t period = 0;  // the monitor's restored epoch (informational)
};

/// One monitor -> engine control message.
using ControlMsg = std::variant<PeriodStartMsg, ReportRequestMsg,
                                OverReserveHintMsg, RecoverySyncMsg>;

/// Packs the client's silent report into the 64-bit slot value:
/// {period:12 | seq:8 | residual:22 | completed:22}.
///
/// The period tag lets the monitor discard writes that were in flight
/// across a period boundary (a stale report would otherwise overwrite the
/// fresh slot prime and corrupt token conversion); 12 bits only need to
/// distinguish neighbouring periods. The seq field increments on every
/// client write, which makes consecutive reports bitwise distinct even
/// when their payload is unchanged (an idle client reporting residual 0 /
/// completed 0 every interval) — the monitor's report lease detects
/// liveness as "the slot changed since my last check", so without seq an
/// idle-but-alive client would be indistinguishable from a dead one.
/// 22 bits comfortably hold per-period I/O counts (the paper's data node
/// peaks at ~1.6M I/Os per 1 s period; the cap is ~4.19M).
inline constexpr std::uint64_t kReportFieldMask = (1ULL << 22) - 1;
inline constexpr std::uint32_t kReportPeriodMask = (1U << 12) - 1;

constexpr std::uint64_t PackReport(std::uint32_t period,
                                   std::uint64_t residual_reservation,
                                   std::uint64_t completed,
                                   std::uint8_t seq = 0) {
  if (residual_reservation > kReportFieldMask) {
    residual_reservation = kReportFieldMask;
  }
  if (completed > kReportFieldMask) completed = kReportFieldMask;
  return (static_cast<std::uint64_t>(period & kReportPeriodMask) << 52) |
         (static_cast<std::uint64_t>(seq) << 44) |
         (residual_reservation << 22) | completed;
}

constexpr std::uint32_t ReportPeriod(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 52) & kReportPeriodMask;
}

constexpr std::uint8_t ReportSeq(std::uint64_t packed) {
  return static_cast<std::uint8_t>((packed >> 44) & 0xff);
}

constexpr std::uint32_t ReportResidual(std::uint64_t packed) {
  return static_cast<std::uint32_t>((packed >> 22) & kReportFieldMask);
}

constexpr std::uint32_t ReportCompleted(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed & kReportFieldMask);
}

/// Addresses a client engine needs to run the one-sided QoS data plane,
/// handed over at admission (out-of-band control plane).
struct QosWiring {
  rdma::RemoteAddr global_pool_addr = 0;
  std::uint32_t global_pool_rkey = 0;
  rdma::RemoteAddr report_slot_addr = 0;
  std::uint32_t report_slot_rkey = 0;
};

}  // namespace haechi::core
