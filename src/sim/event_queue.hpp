// The simulator's priority queue of timestamped events.
//
// Events are delivered in (time, insertion-sequence) order, so a run is a
// pure function of its inputs. The heap holds only small {time, id} keys;
// callbacks live in a slab of slots and never move while the heap sifts.
// An EventId packs the insertion sequence number above the slot index, so
// id order is sequence order and the slot is recovered without a lookup.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/callback.hpp"

namespace haechi::sim {

/// Handle for cancelling a scheduled event. Ids are unique per queue and
/// never reused within a run.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// Callback invoked when an event fires. Fires at most once.
using EventFn = Callback;

struct Event {
  SimTime time = 0;
  EventId id = kInvalidEventId;
  EventFn fn;
};

/// Binary-heap event queue ordered by (time, id). Not thread-safe: the
/// simulation is single-threaded by design (see DESIGN.md §1).
///
/// Cancellation is lazy: Cancel frees the slot at once and the heap key is
/// dropped when it reaches the top (its id no longer matches its slot's).
/// Bookkeeping is per slot, so memory is O(pending events) however many
/// events a run schedules.
class BinaryHeapEventQueue {
 public:
  /// Enqueues `fn` to fire at absolute time `time`.
  EventId Schedule(SimTime time, EventFn fn);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool Cancel(EventId id);

  /// Removes and returns the earliest pending event. Returns an Event with
  /// id == kInvalidEventId when empty. The callback is moved out of its
  /// slot before the caller runs it, so it may schedule further events.
  Event PopNext();

  /// Earliest pending time, or kSimTimeMax when empty.
  [[nodiscard]] SimTime PeekTime();

  [[nodiscard]] bool Empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, non-fired) events.
  [[nodiscard]] std::size_t Size() const { return live_; }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct Key {
    SimTime time;
    EventId id;
  };
  struct Slot {
    EventId id = kInvalidEventId;  // kInvalidEventId: free
    EventFn fn;
  };

  static bool EarlierThan(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }
  static std::size_t SlotOf(EventId id) {
    return static_cast<std::size_t>(id & kSlotMask);
  }
  [[nodiscard]] bool Pending(EventId id) const {
    const std::size_t slot = SlotOf(id);
    return slot < slots_.size() && slots_[slot].id == id;
  }

  void FreeSlot(std::size_t slot);
  void PopTop();
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void DropCancelledTop();

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace haechi::sim
