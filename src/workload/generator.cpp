#include "workload/generator.hpp"

#include <utility>

#include "common/assert.hpp"

namespace haechi::workload {

KeyChooser::KeyChooser(Kind kind, std::uint64_t record_count, double theta,
                       Rng rng)
    : kind_(kind), record_count_(record_count), rng_(rng) {
  HAECHI_EXPECTS(record_count > 0);
  if (kind_ == Kind::kZipfian) {
    zipf_.emplace(record_count, theta);
  }
}

std::uint64_t KeyChooser::Next() {
  switch (kind_) {
    case Kind::kUniformRandom:
      return rng_.NextBelow(record_count_);
    case Kind::kZipfian:
      return zipf_->Sample(rng_);
    case Kind::kSequential:
      return cursor_++ % record_count_;
  }
  HAECHI_UNREACHABLE("unknown key chooser kind");
}

DemandGenerator::DemandGenerator(sim::Simulator& sim, const Config& config,
                                 KeyChooser chooser, SubmitFn submit)
    : sim_(sim),
      config_(config),
      chooser_(std::move(chooser)),
      submit_(std::move(submit)),
      pending_demand_(config.demand_per_period) {
  HAECHI_EXPECTS(config.period > 0);
  HAECHI_EXPECTS(config.outstanding > 0);
  HAECHI_EXPECTS(submit_ != nullptr);
}

void DemandGenerator::Start(SimTime at) {
  HAECHI_EXPECTS(!running_);
  running_ = true;
  sim_.ScheduleAt(at, [this] {
    if (!running_) return;
    BeginPeriod();
    period_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, config_.period, [this] { BeginPeriod(); });
    period_timer_->Start();
  });
}

void DemandGenerator::Stop() {
  running_ = false;
  if (period_timer_) period_timer_->Stop();
  if (rate_timer_) rate_timer_->Stop();
}

void DemandGenerator::BeginPeriod() {
  if (!running_) return;
  config_.demand_per_period = pending_demand_;
  submitted_this_period_ = 0;
  if (rate_timer_) {
    rate_timer_->Stop();
    rate_timer_.reset();
  }
  if (config_.demand_per_period <= 0) return;

  switch (config_.pattern) {
    case RequestPattern::kBurst:
      FillBurstWindow();
      break;
    case RequestPattern::kOpenLoop:
      while (submitted_this_period_ < config_.demand_per_period) {
        SubmitOne();
      }
      break;
    case RequestPattern::kConstantRate: {
      SimDuration interval =
          config_.period / config_.demand_per_period;
      if (interval < 1) interval = 1;
      rate_timer_ = std::make_unique<sim::PeriodicTimer>(
          sim_, interval, [this] {
            if (submitted_this_period_ >= config_.demand_per_period) {
              rate_timer_->Stop();
              return;
            }
            if (in_flight_ >=
                static_cast<std::int64_t>(config_.outstanding)) {
              // Backlog bound: shed this tick instead of queueing without
              // limit (the request still counts against the period target).
              ++submitted_this_period_;
              ++skipped_total_;
              return;
            }
            SubmitOne();
          });
      // First request right at the period boundary, like the paper's
      // equal-spacing pattern.
      SubmitOne();
      rate_timer_->Start();
      break;
    }
  }
}

void DemandGenerator::FillBurstWindow() {
  while (in_flight_ < static_cast<std::int64_t>(config_.outstanding) &&
         submitted_this_period_ < config_.demand_per_period) {
    SubmitOne();
  }
}

void DemandGenerator::SubmitOne() {
  ++submitted_this_period_;
  ++submitted_total_;
  ++in_flight_;
  const bool is_write = config_.write_fraction > 0.0 &&
                        write_rng_.NextDouble() < config_.write_fraction;
  if (is_write) ++writes_submitted_;
  const SimTime submitted_at = sim_.Now();
  submit_(chooser_.Next(), is_write, CompleteFn(this, submitted_at));
}

void DemandGenerator::OnComplete(SimTime submitted_at) {
  --in_flight_;
  ++completed_total_;
  if (latency_sink_ != nullptr && submitted_at >= latency_after_) {
    latency_sink_->Record(sim_.Now() - submitted_at);
  }
  if (running_ && config_.pattern == RequestPattern::kBurst) {
    FillBurstWindow();
  }
}

}  // namespace haechi::workload
