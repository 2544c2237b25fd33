#include "net/station.hpp"

#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace haechi::net {

namespace detail {

SimDuration ApplyJitter(SimDuration service, double jitter, Rng& rng) {
  if (jitter <= 0.0) return service;
  const double factor = 1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
  auto out = static_cast<SimDuration>(
      static_cast<double>(service) * factor);
  return out < 1 ? 1 : out;
}

}  // namespace detail

FairShareStation::FairShareStation(sim::Simulator& sim, std::string name,
                                   double jitter, std::uint64_t seed,
                                   Discipline discipline)
    : sim_(sim),
      name_(std::move(name)),
      jitter_(jitter),
      rng_(seed),
      discipline_(discipline) {}

void FairShareStation::Submit(FlowId flow, SimDuration service_time,
                              ServiceDoneFn done, Priority priority) {
  HAECHI_EXPECTS(service_time > 0);
  HAECHI_EXPECTS(done != nullptr);
  if (priority == Priority::kControl) {
    control_.push_back(Item{service_time, std::move(done), flow});
  } else if (discipline_ == Discipline::kFifo) {
    if (flow >= fifo_depths_.size()) fifo_depths_.resize(flow + 1);
    ++fifo_depths_[flow];
    fifo_.push_back(Item{service_time, std::move(done), flow});
  } else {
    if (flow >= flows_.size()) {
      flows_.resize(flow + 1);
      backlog_.resize((flows_.size() + 63) / 64);
    }
    flows_[flow].push_back(Item{service_time, std::move(done), flow});
    backlog_[flow / 64] |= std::uint64_t{1} << (flow % 64);
  }
  ++queued_;
  if (!busy_) StartNext();
}

std::size_t FairShareStation::QueueDepth(FlowId flow) const {
  if (discipline_ == Discipline::kFifo) {
    return flow < fifo_depths_.size() ? fifo_depths_[flow] : 0;
  }
  return flow < flows_.size() ? flows_[flow].size() : 0;
}

std::size_t FairShareStation::FindNextActive() const {
  const std::size_t words = backlog_.size();
  if (words == 0) return flows_.size();
  // The cursor's word with the flows before the cursor masked off, then
  // every later word, wrapping to word 0 and ending on the cursor's word
  // again, unmasked, for the flows before the cursor.
  std::size_t word = cursor_ / 64;
  std::uint64_t bits = backlog_[word] & (~std::uint64_t{0} << (cursor_ % 64));
  for (std::size_t step = 0; step < words; ++step) {
    if (bits != 0) break;
    word = word + 1 == words ? 0 : word + 1;
    bits = backlog_[word];
  }
  if (bits == 0) return flows_.size();
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void FairShareStation::StartNext() {
  HAECHI_ASSERT(!busy_);
  if (queued_ == 0) return;
  busy_ = true;
  Item item;
  if (!control_.empty()) {
    item = std::move(control_.front());
    control_.pop_front();
  } else if (discipline_ == Discipline::kFifo) {
    item = std::move(fifo_.front());
    fifo_.pop_front();
    HAECHI_ASSERT(fifo_depths_[item.flow] > 0);
    --fifo_depths_[item.flow];
  } else {
    const std::size_t idx = FindNextActive();
    HAECHI_ASSERT(idx < flows_.size() && !flows_[idx].empty());
    item = std::move(flows_[idx].front());
    flows_[idx].pop_front();
    if (flows_[idx].empty()) {
      backlog_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    }
    cursor_ = (idx + 1) % flows_.size();  // next search starts past this one
  }
  --queued_;
  const SimDuration service =
      detail::ApplyJitter(item.service, jitter_, rng_);
  busy_time_ += service;
  in_service_ = std::move(item.done);
  sim_.ScheduleAfter(service, [this] { Finish(); });
}

void FairShareStation::Finish() {
  busy_ = false;
  ++served_;
  ServiceDoneFn done = std::move(in_service_);
  // Start the next item before running the callback: if the callback
  // submits new work it should queue behind already-waiting items.
  StartNext();
  done();
}

}  // namespace haechi::net
