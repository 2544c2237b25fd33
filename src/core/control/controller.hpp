// Closed-loop QoS control plane (DESIGN.md §14).
//
// The SloWatchdog (src/obs/slo) only *reports* W1-W7 conformance verdicts;
// this controller closes the loop. It is a policy engine fed by the live
// alert stream — it registers as an obs::AlertSink on the watchdog, which
// itself rides the Recorder::SetTap path — and turns violations into
// corrective actions applied at the next period boundary:
//
//   W1 reservation shortfall  ->  reservation resizing: shed the victim's
//                                 unservable reservation to a receiver with
//                                 headroom, sum-neutral on the token ledger
//                                 (the guarantee target min(R, demand)
//                                 falls to a sustainable level)
//   W5 capacity oscillation   ->  damp Algorithm 1's estimate step eta
//                                 (CapacityEstimator::SetEtaScaleMilli)
//   W6 FAA starvation         ->  force early token conversion: activate
//                                 reporting at the next period start instead
//                                 of waiting for S2, which can never fire on
//                                 a zero-initial pool
//   lease churn               ->  drive runtime re-admission of recovered
//                                 clients through the harness
//
// Contract split: OnAlert runs inside the recorder tap and therefore only
// records (the AlertSink contract forbids emitting events or mutating sim
// state from a tap). PlanBoundary is called by the QoS monitor at each
// period boundary — after the watchdog settled the period's verdicts and
// before the next period is provisioned — and returns the actions to apply
// plus the violations that went quiet. The monitor applies the actions and
// emits one kControlAction trace event per applied action and one
// kControlRecovered per recovery, so haechi_audit can replay the
// controller's behaviour (A10: resize deltas sum to zero per period) and
// ReplayTrace reproduces the `recovered` alerts offline.
//
// Everything here is pure bookkeeping over (alerts, client view): identical
// inputs produce identical plans, so controller runs are deterministic
// under fixed seeds on the simulator and statistically reproducible on the
// threaded runtime.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "obs/alerts.hpp"

namespace haechi::core::control {

/// How hard the controller leans on a violation. kOff keeps the controller
/// inert (alerts are drained and discarded); kConservative sheds half of a
/// measured gap per boundary and waits for repeated lease churn before
/// re-admitting; kAggressive closes the whole gap at once.
enum class Policy : std::uint8_t { kOff = 0, kConservative = 1, kAggressive = 2 };

[[nodiscard]] std::string_view ToString(Policy policy);
[[nodiscard]] bool PolicyFromName(std::string_view name, Policy& out);

/// Per-rule enables, a bit mask (the `rules` config field).
enum RuleBit : std::uint32_t {
  kRuleShortfall = 1u << 0,    // react to W1 reservation shortfall
  kRuleOscillation = 1u << 1,  // react to W5 capacity oscillation
  kRuleStarvation = 1u << 2,   // react to W6 FAA starvation
  kRuleLease = 1u << 3,        // react to lease churn (re-admission)
  kAllRules = (1u << 4) - 1,
};

/// Parses "w1,w5,w6,lease" (any subset), "all" or "none" into a rule mask.
[[nodiscard]] Result<std::uint32_t> ParseRuleMask(std::string_view csv);

/// What one controller action does; stamped into kControlAction.a.
enum class ActionKind : std::uint8_t {
  kResize = 0,           // change a client's reservation (sum-neutral pair)
  kScaleEta = 1,         // set the estimator's eta scale (milli)
  kForceConversion = 2,  // activate reporting/conversion at period start
  kReadmit = 3,          // re-admit a lease-expired client via the harness
};

/// Priority/burst service classes layered on top of reserve+limit. They
/// shape W1 reallocation only: receivers are ranked by priority (higher
/// first), and a non-burst client never grows beyond its admitted spec
/// reservation while a burst client may absorb shed capacity up to its
/// limit. The default class is permissive so the controller works without
/// per-client setup.
struct ClientClass {
  std::uint8_t priority = 1;
  bool burst = true;
};

struct ControllerConfig {
  Policy policy = Policy::kOff;
  std::uint32_t rules = kAllRules;
  /// Clean evaluated periods before a W1/W6/lease violation counts as
  /// recovered (these rules re-alert every violating period).
  std::uint32_t quiet_periods = 1;
  /// Clean periods before W5 counts as recovered. W5 only alerts every
  /// obs::kOscillationFlips periods while oscillating, so this must exceed
  /// the watchdog's flip window to avoid declaring recovery mid-cycle.
  std::uint32_t oscillation_quiet = 6;
  /// Quiet periods after the last W5 alert before the eta damping is
  /// relaxed again (doubling back toward 1000 milli).
  std::uint32_t eta_recover_after = 16;
  /// Floor a W1 resize may shrink a reservation to.
  std::int64_t min_reservation = 0;
};

class QosController : public obs::AlertSink {
 public:
  explicit QosController(const ControllerConfig& config);

  /// Admission-time facts the policy needs: the spec reservation caps
  /// non-burst receivers and spec demand identifies demand-capped clients
  /// (safe receivers — extra reservation cannot raise their W1 target).
  void SetClientSpec(std::uint32_t client, std::int64_t reservation,
                     std::int64_t limit, std::int64_t demand);
  void SetClientClass(std::uint32_t client, ClientClass cls);

  /// Runtime policy swap (the haechi_sim --control-api path). Takes effect
  /// at the next boundary; violation bookkeeping is kept so a controller
  /// switched on mid-run reacts to an ongoing violation immediately.
  void SetPolicy(Policy policy) { config_.policy = policy; }
  void EnableRule(std::uint32_t bit, bool on) {
    if (on) {
      config_.rules |= bit;
    } else {
      config_.rules &= ~bit;
    }
  }

  [[nodiscard]] Policy policy() const { return config_.policy; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] bool enabled() const { return config_.policy != Policy::kOff; }

  /// AlertSink intake. Runs inside the recorder tap: records the alert and
  /// nothing else (no event emission, no sim-state mutation).
  void OnAlert(const obs::Alert& alert) override;

  /// One admitted client as the monitor sees it at the boundary.
  struct ClientView {
    std::uint32_t client = 0;
    std::int64_t reservation = 0;
    std::int64_t limit = 0;      // 0 = unlimited
    std::int64_t completed = 0;  // reported completions, evaluated period
  };

  struct Action {
    ActionKind kind{};
    std::int64_t client = -1;  // -1: monitor-wide
    /// kResize: the new absolute reservation; kScaleEta: scale in milli.
    std::int64_t value = 0;
    /// kResize: signed reservation change — the kControlAction.c payload
    /// the audit sums to prove boundary-local neutrality.
    std::int64_t delta = 0;
  };

  struct Recovery {
    obs::AlertKind rule{};
    std::int64_t client = -1;
    std::uint32_t periods = 0;  // first violation -> first clean period
  };

  struct Boundary {
    std::vector<Action> actions;
    std::vector<Recovery> recovered;
  };

  /// Turns the alerts recorded since the last boundary into a plan.
  /// `period` is the period whose verdicts just settled; `view` must be
  /// sorted by client id (the monitor guarantees it). Resize actions are
  /// ordered shrink-before-grow and their deltas sum to zero.
  Boundary PlanBoundary(std::uint32_t period,
                        const std::vector<ClientView>& view);

  struct Stats {
    std::uint64_t alerts = 0;
    std::uint64_t resizes = 0;
    std::uint64_t eta_scalings = 0;
    std::uint64_t forced_conversions = 0;
    std::uint64_t readmits = 0;
    std::uint64_t recoveries = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Current eta damping (1000 = undamped) and whether forced conversion
  /// is latched (it stays on once W6 fired: the zero-pool deadlock it
  /// breaks would re-form the moment forcing stops).
  [[nodiscard]] std::int64_t eta_scale_milli() const { return eta_scale_milli_; }
  [[nodiscard]] bool force_conversion_active() const { return force_active_; }

 private:
  struct Spec {
    std::int64_t reservation = 0;
    std::int64_t limit = 0;
    std::int64_t demand = 0;
  };

  struct Violation {
    std::uint32_t first_period = 0;
    std::uint32_t last_period = 0;
    std::int64_t expected = 0;  // latest alert payload
    std::int64_t observed = 0;
  };

  [[nodiscard]] std::uint32_t QuietFor(obs::AlertKind kind) const;
  void PlanShortfalls(std::uint32_t period,
                      const std::vector<ClientView>& view, Boundary& out);

  ControllerConfig config_;
  std::map<std::uint32_t, Spec> specs_;
  std::map<std::uint32_t, ClientClass> classes_;
  std::vector<obs::Alert> pending_;
  // (rule, client) -> violation in progress. client -1 for monitor-wide.
  std::map<std::pair<std::uint8_t, std::int64_t>, Violation> violations_;
  std::map<std::int64_t, std::int64_t> churn_seen_;      // client -> count
  std::map<std::int64_t, std::int64_t> churn_readmits_;  // client -> count
  std::int64_t eta_scale_milli_ = 1000;
  std::uint32_t last_osc_period_ = 0;
  bool force_active_ = false;
  Stats stats_;
};

}  // namespace haechi::core::control
