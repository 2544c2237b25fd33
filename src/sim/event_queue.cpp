#include "sim/event_queue.hpp"

#include <utility>

#include "common/assert.hpp"

namespace haechi::sim {

EventId BinaryHeapEventQueue::Schedule(SimTime time, EventFn fn) {
  HAECHI_EXPECTS(fn != nullptr);
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    HAECHI_ASSERT(slot <= kSlotMask);
    slots_.emplace_back();
  }
  HAECHI_ASSERT(next_seq_ < (EventId{1} << (64 - kSlotBits)));
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Key{time, id});
  SiftUp(heap_.size() - 1);
  ++live_;
  return id;
}

bool BinaryHeapEventQueue::Cancel(EventId id) {
  if (id == kInvalidEventId || !Pending(id)) return false;
  FreeSlot(SlotOf(id));
  HAECHI_ASSERT(live_ > 0);
  --live_;
  return true;
}

void BinaryHeapEventQueue::FreeSlot(std::size_t slot) {
  slots_[slot].id = kInvalidEventId;
  slots_[slot].fn = nullptr;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
}

void BinaryHeapEventQueue::PopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void BinaryHeapEventQueue::DropCancelledTop() {
  // A key whose slot no longer carries its id belongs to a cancelled event
  // (the slot was freed, and possibly reused, at Cancel time).
  while (!heap_.empty() && !Pending(heap_.front().id)) PopTop();
}

Event BinaryHeapEventQueue::PopNext() {
  DropCancelledTop();
  if (heap_.empty()) return {};
  const Key top = heap_.front();
  PopTop();
  const std::size_t slot = SlotOf(top.id);
  Event out{top.time, top.id, std::move(slots_[slot].fn)};
  FreeSlot(slot);
  HAECHI_ASSERT(live_ > 0);
  --live_;
  return out;
}

SimTime BinaryHeapEventQueue::PeekTime() {
  DropCancelledTop();
  return heap_.empty() ? kSimTimeMax : heap_.front().time;
}

void BinaryHeapEventQueue::SiftUp(std::size_t i) {
  const Key moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!EarlierThan(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void BinaryHeapEventQueue::SiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key moving = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && EarlierThan(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!EarlierThan(heap_[child], moving)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

}  // namespace haechi::sim
