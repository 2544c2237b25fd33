// Unit tests for the discrete-event core: Simulator, BinaryHeapEventQueue,
// PeriodicTimer and the inline callback type. Ordering and cancel semantics
// are cross-checked against ReferenceEventQueue, a deliberately naive
// ordered-map queue written only for this file, under randomized
// schedule/cancel/reschedule fuzz.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace haechi::sim {

/// The oracle: (time, sequence) keys in a std::multimap, a second map for
/// cancellation. Same interface as BinaryHeapEventQueue; it shares no code
/// with it.
class ReferenceEventQueue {
 public:
  EventId Schedule(SimTime time, EventFn fn) {
    const EventId id = next_id_++;
    const auto it =
        queue_.emplace(std::make_pair(time, id), std::move(fn));
    pending_.emplace(id, it);
    return id;
  }

  bool Cancel(EventId id) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return false;
    queue_.erase(it->second);
    pending_.erase(it);
    return true;
  }

  Event PopNext() {
    if (queue_.empty()) return {};
    const auto top = queue_.begin();
    Event out{top->first.first, top->first.second, std::move(top->second)};
    pending_.erase(out.id);
    queue_.erase(top);
    return out;
  }

  [[nodiscard]] SimTime PeekTime() {
    return queue_.empty() ? kSimTimeMax : queue_.begin()->first.first;
  }
  [[nodiscard]] bool Empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t Size() const { return queue_.size(); }

 private:
  using Queue = std::multimap<std::pair<SimTime, EventId>, EventFn>;
  Queue queue_;
  std::map<EventId, Queue::iterator> pending_;
  EventId next_id_ = 1;
};

/// Simulator::RunUntil's contract re-stated over the reference queue.
class ReferenceSimulator {
 public:
  [[nodiscard]] SimTime Now() const { return now_; }
  EventId ScheduleAt(SimTime time, EventFn fn) {
    return queue_.Schedule(time < now_ ? now_ : time, std::move(fn));
  }
  EventId ScheduleAfter(SimDuration delay, EventFn fn) {
    return queue_.Schedule(now_ + delay, std::move(fn));
  }
  bool Cancel(EventId id) { return queue_.Cancel(id); }
  std::uint64_t RunUntil(SimTime deadline) {
    std::uint64_t ran = 0;
    while (queue_.PeekTime() <= deadline) {
      Event event = queue_.PopNext();
      now_ = event.time;
      event.fn();
      ++ran;
    }
    if (now_ < deadline) now_ = deadline;
    return ran;
  }

 private:
  ReferenceEventQueue queue_;
  SimTime now_ = 0;
};

namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.EventsRun(), 3u);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  int ran = 0;
  sim.ScheduleAt(10, [&] { ++ran; });
  sim.ScheduleAt(20, [&] { ++ran; });
  sim.ScheduleAt(21, [&] { ++ran; });
  sim.RunUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(ran, 3);
  // No events remain; clock advances to the deadline.
  EXPECT_EQ(sim.Now(), 100);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, SchedulingInThePastFiresImmediately) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { fired_at = sim.Now(); });  // "earlier" than now
  });
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double cancel
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.ScheduleAt(10, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int ran = 0;
  sim.ScheduleAt(1, [&] { ++ran; });
  sim.ScheduleAt(2, [&] { ++ran; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(ran, 2);
}

TEST(PeriodicTimer, FiresAtFixedInterval) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer(sim, 10, [&] { fires.push_back(sim.Now()); });
  timer.Start();
  sim.RunUntil(35);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30}));
  timer.Stop();
  sim.RunUntil(100);
  EXPECT_EQ(fires.size(), 3u);
}

TEST(PeriodicTimer, CallbackMayStopTheTimer) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] {
    if (++fires == 2) timer.Stop();
  });
  timer.Start();
  sim.Run();
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(timer.Running());
}

TEST(PeriodicTimer, RestartAfterStop) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] { ++fires; });
  timer.Start();
  sim.RunUntil(25);
  timer.Stop();
  timer.Start();
  sim.RunUntil(45);
  EXPECT_EQ(fires, 4);  // 10, 20, 35, 45
}

// --- event queues: the heap and the reference model -----------------------

template <typename Queue>
class EventQueueTest : public ::testing::Test {
 protected:
  Queue queue_;
};

using QueueTypes = ::testing::Types<BinaryHeapEventQueue, ReferenceEventQueue>;
TYPED_TEST_SUITE(EventQueueTest, QueueTypes);

TYPED_TEST(EventQueueTest, PopsInTimeThenIdOrder) {
  auto& q = this->queue_;
  q.Schedule(500, [] {});
  q.Schedule(100, [] {});
  q.Schedule(100, [] {});
  q.Schedule(300, [] {});
  EXPECT_EQ(q.Size(), 4u);
  std::vector<std::pair<SimTime, EventId>> popped;
  while (!q.Empty()) {
    Event e = q.PopNext();
    popped.emplace_back(e.time, e.id);
  }
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(popped.front().first, 100);
  EXPECT_EQ(popped.back().first, 500);
}

TYPED_TEST(EventQueueTest, PeekDoesNotPop) {
  auto& q = this->queue_;
  q.Schedule(7, [] {});
  EXPECT_EQ(q.PeekTime(), 7);
  EXPECT_EQ(q.PeekTime(), 7);
  EXPECT_EQ(q.Size(), 1u);
  q.PopNext();
  EXPECT_EQ(q.PeekTime(), kSimTimeMax);
}

TYPED_TEST(EventQueueTest, CancelRemovesEvent) {
  auto& q = this->queue_;
  const EventId a = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.Size(), 1u);
  Event e = q.PopNext();
  EXPECT_EQ(e.time, 20);
  EXPECT_TRUE(q.Empty());
}

TYPED_TEST(EventQueueTest, CancelInvalidIdsReturnsFalse) {
  auto& q = this->queue_;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(12345));
}

TYPED_TEST(EventQueueTest, PopOnEmptyReturnsInvalid) {
  Event e = this->queue_.PopNext();
  EXPECT_EQ(e.id, kInvalidEventId);
}

TYPED_TEST(EventQueueTest, FarFutureEvents) {
  auto& q = this->queue_;
  const SimTime far = Seconds(36000);
  q.Schedule(far, [] {});
  q.Schedule(5, [] {});
  EXPECT_EQ(q.PopNext().time, 5);
  EXPECT_EQ(q.PopNext().time, far);
}

TYPED_TEST(EventQueueTest, StressManyTimescales) {
  auto& q = this->queue_;
  Rng rng(99);
  std::vector<SimTime> times;
  for (int i = 0; i < 20000; ++i) {
    // Mix of ns, µs, ms, s, and hour horizons.
    static constexpr SimTime kSpans[] = {100,        Micros(10), Millis(5),
                                         Seconds(2), Seconds(7200)};
    const SimTime t = static_cast<SimTime>(
        rng.NextBelow(static_cast<std::uint64_t>(kSpans[rng.NextBelow(5)])));
    times.push_back(t);
    q.Schedule(t, [] {});
  }
  std::sort(times.begin(), times.end());
  for (const SimTime expected : times) {
    Event e = q.PopNext();
    ASSERT_EQ(e.time, expected);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CancelledSlotsAreReusedWithoutConfusingIds) {
  // A cancelled event frees its slot at once; the next event reuses it.
  // The stale heap key must still be recognised as cancelled, and the old
  // id must not cancel the slot's new occupant.
  BinaryHeapEventQueue q;
  const EventId old_id = q.Schedule(10, [] {});
  ASSERT_TRUE(q.Cancel(old_id));
  const EventId new_id = q.Schedule(20, [] {});
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(q.Cancel(old_id));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PeekTime(), 20);
  Event e = q.PopNext();
  EXPECT_EQ(e.id, new_id);
  EXPECT_FALSE(q.Cancel(new_id));
  EXPECT_TRUE(q.Empty());
}

TEST(QueueEquivalence, IdenticalOrderUnderRandomWorkload) {
  // Property: for any schedule/cancel/pop sequence, the heap and the
  // reference model pop the same events in the same order, and every
  // Cancel returns the same verdict on both. Ids differ between the two
  // queues, so events are matched by a per-event tag.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    BinaryHeapEventQueue heap;
    ReferenceEventQueue ref;
    std::map<EventId, int> heap_tag, ref_tag;
    // (heap id, reference id) of every event ever scheduled: cancelling a
    // fired or already-cancelled event must fail on both.
    std::vector<std::pair<EventId, EventId>> scheduled;
    SimTime now = 0;
    int next_tag = 0;

    for (int step = 0; step < 5000; ++step) {
      const auto action = rng.NextBelow(10);
      if (action < 6) {
        // Short horizons collide often on equal times.
        const SimTime when =
            now + static_cast<SimTime>(rng.NextBelow(2) == 0
                                           ? rng.NextBelow(Millis(50))
                                           : rng.NextBelow(200));
        const EventId h = heap.Schedule(when, [] {});
        const EventId r = ref.Schedule(when, [] {});
        heap_tag[h] = next_tag;
        ref_tag[r] = next_tag++;
        scheduled.emplace_back(h, r);
      } else if (action < 8 && !scheduled.empty()) {
        const auto& [h, r] = scheduled[rng.NextBelow(scheduled.size())];
        ASSERT_EQ(heap.Cancel(h), ref.Cancel(r))
            << "seed " << seed << " step " << step;
      } else if (!ref.Empty()) {
        ASSERT_EQ(heap.PeekTime(), ref.PeekTime());
        Event he = heap.PopNext();
        Event re = ref.PopNext();
        ASSERT_EQ(he.time, re.time) << "seed " << seed << " step " << step;
        ASSERT_EQ(heap_tag.at(he.id), ref_tag.at(re.id));
        now = he.time;
      }
      ASSERT_EQ(heap.Size(), ref.Size());
    }
    while (!ref.Empty()) {
      Event he = heap.PopNext();
      Event re = ref.PopNext();
      ASSERT_EQ(he.time, re.time);
      ASSERT_EQ(heap_tag.at(he.id), ref_tag.at(re.id));
    }
    EXPECT_TRUE(heap.Empty());
  }
}

// --- the simulator against the reference model ------------------------------

TEST(ReferenceModel, ProducesSameResultsAsSimulator) {
  // A miniature "protocol": a timer plus event chains; the final state must
  // match the reference run exactly.
  auto run = [](auto& sim) {
    std::uint64_t checksum = 0;
    std::function<void()> tick = [&] {  // a 1 ms periodic timer
      checksum = checksum * 31 + static_cast<std::uint64_t>(sim.Now());
      sim.ScheduleAfter(Millis(1), [&tick] { tick(); });
    };
    sim.ScheduleAt(Millis(1), [&tick] { tick(); });
    for (int i = 0; i < 100; ++i) {
      sim.ScheduleAt(i * Micros(37), [&sim, &checksum] {
        checksum ^= static_cast<std::uint64_t>(sim.Now());
        sim.ScheduleAfter(Micros(11), [&checksum] { checksum += 7; });
      });
    }
    sim.RunUntil(Millis(20));
    return checksum;
  };
  Simulator sim;
  ReferenceSimulator ref;
  EXPECT_EQ(run(sim), run(ref));
}

// Randomized cancel/reschedule fuzz: callbacks executing inside RunUntil
// cancel other events (some pending, some already fired, some cancelled
// twice) and schedule replacements. The fired sequence (tag, time) and
// every Cancel verdict must match the reference model for every seed —
// this pins the Cancel-while-draining semantics of the heap's lazy
// deletion and slot reuse.
TEST(ReferenceModel, CancelRescheduleFuzzMatchesSimulator) {
  struct RunLog {
    std::vector<std::pair<int, SimTime>> fired;
    std::vector<bool> cancels;  // every Cancel verdict, in call order
    std::uint64_t events_run = 0;

    bool operator==(const RunLog&) const = default;
  };

  auto run = [](auto& sim, std::uint64_t seed) {
    Rng rng(seed);
    RunLog log;
    std::vector<EventId> scheduled;
    int next_tag = 0;

    // Each event logs itself and then, driven by the shared deterministic
    // Rng, cancels a random event and/or schedules a replacement.
    std::function<void(int)> fire = [&](int tag) {
      log.fired.emplace_back(tag, sim.Now());
      const std::uint64_t roll = rng() % 100;
      if (roll < 45 && !scheduled.empty()) {
        log.cancels.push_back(
            sim.Cancel(scheduled[rng() % scheduled.size()]));
      }
      if (roll < 80) {
        const int t = next_tag++;
        scheduled.push_back(sim.ScheduleAfter(
            static_cast<SimDuration>(rng() % Micros(500)),
            [&fire, t] { fire(t); }));
      }
    };

    for (int i = 0; i < 64; ++i) {
      const int t = next_tag++;
      scheduled.push_back(sim.ScheduleAt(
          static_cast<SimTime>(rng() % Millis(5)), [&fire, t] { fire(t); }));
    }
    log.events_run = sim.RunUntil(Millis(50));
    return log;
  };

  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Simulator sim;
    ReferenceSimulator ref;
    const RunLog got = run(sim, seed);
    const RunLog want = run(ref, seed);
    EXPECT_EQ(got, want) << "simulator diverged from the reference at seed "
                         << seed << " (fired " << got.fired.size() << " vs "
                         << want.fired.size() << ")";
    EXPECT_GT(std::count(got.cancels.begin(), got.cancels.end(), true), 0)
        << "fuzz never cancelled (seed " << seed << ")";
    EXPECT_GT(std::count(got.cancels.begin(), got.cancels.end(), false), 0)
        << "fuzz never raced a fired event (seed " << seed << ")";
  }
}

// --- inline callbacks ---------------------------------------------------------

TEST(Callback, MovesOwnedStateAndDestroysItExactlyOnce) {
  auto token = std::make_shared<int>(7);
  int seen = 0;
  {
    Callback a = [token, &seen] { seen = *token; };
    EXPECT_EQ(token.use_count(), 2);
    Callback b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_EQ(token.use_count(), 2);
    b();
    EXPECT_EQ(seen, 7);
    b = nullptr;
    EXPECT_EQ(token.use_count(), 1);
    Callback c = [token] {};
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Callback, EventsFireAfterTheSlabGrowsUnderThem) {
  // A callback that schedules many more events forces the slot slab to
  // reallocate while it runs; it must already have been moved out.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1, [&sim, &order] {
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(2, [&order, i] { order.push_back(i); });
    }
    order.push_back(-1);
  });
  sim.Run();
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order.front(), -1);
  EXPECT_TRUE(std::is_sorted(order.begin() + 1, order.end()));
}

}  // namespace
}  // namespace haechi::sim
