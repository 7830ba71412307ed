#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/prng.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

TEST(SimulationTest, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(Milliseconds(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Milliseconds(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Milliseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, std::vector<int>({1, 2, 3}));
  EXPECT_EQ(sim.now(), Milliseconds(30));
}

TEST(SimulationTest, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulationTest, ScheduleAfterIsRelative) {
  Simulation sim;
  SimTime fired = -1;
  sim.ScheduleAt(Seconds(1), [&] {
    sim.ScheduleAfter(Milliseconds(500), [&] { fired = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, Seconds(1) + Milliseconds(500));
}

TEST(SimulationTest, PastTimesClampToNow) {
  Simulation sim;
  SimTime fired = -1;
  sim.ScheduleAt(Seconds(2), [&] {
    sim.ScheduleAt(Seconds(1), [&] { fired = sim.now(); });  // In the past.
  });
  sim.Run();
  EXPECT_EQ(fired, Seconds(2));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  auto handle = sim.ScheduleAt(Seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(handle));
  sim.Run();
  EXPECT_FALSE(ran);
  // Double-cancel is a no-op.
  EXPECT_FALSE(sim.Cancel(handle));
}

TEST(SimulationTest, CancelReleasesCapturedStateImmediately) {
  // Callbacks live out-of-line from the event queue, so Cancel must destroy
  // the callback — and anything it captured — at cancel time, not when the
  // stale queue entry eventually pops. A buffered packet cancelled out of a
  // pipeline would otherwise pin its payload until the deadline passes.
  Simulation sim;
  auto payload = std::make_shared<std::vector<uint8_t>>(4096, 0xAB);
  std::weak_ptr<std::vector<uint8_t>> watcher = payload;
  auto handle = sim.ScheduleAt(Seconds(100), [payload] {
    ASSERT_FALSE(payload->empty());  // Never runs.
  });
  payload.reset();
  EXPECT_FALSE(watcher.expired());  // The pending event keeps it alive.
  EXPECT_TRUE(sim.Cancel(handle));
  EXPECT_TRUE(watcher.expired());   // Freed at cancel, before the sim runs.
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(sim.now(), 0);  // The cancelled stub must not advance the clock.
}

TEST(SimulationTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulation sim;
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.now(), Seconds(5));
}

TEST(SimulationTest, RunUntilDoesNotRunLaterEvents) {
  Simulation sim;
  bool early = false;
  bool late = false;
  sim.ScheduleAt(Seconds(1), [&] { early = true; });
  sim.ScheduleAt(Seconds(10), [&] { late = true; });
  sim.RunUntil(Seconds(5));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.now(), Seconds(5));
  sim.Run();
  EXPECT_TRUE(late);
}

TEST(SimulationTest, RunForIsRelative) {
  Simulation sim;
  sim.RunUntil(Seconds(2));
  sim.RunFor(Seconds(3));
  EXPECT_EQ(sim.now(), Seconds(5));
}

TEST(SimulationTest, EventsProcessedCounter) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAfter(Milliseconds(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(SimulationTest, CascadingEventsAtSameInstant) {
  // An event scheduling another event at the same instant must run it in the
  // same Run() — the LAN delivery path depends on this.
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(0, recurse);
    }
  };
  sim.ScheduleAt(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
}

TEST(SimulationTest, StaleHandleOfRunEventLeavesSlotsNewEventAlone) {
  // A run event frees its slot for the next schedule; the old handle must
  // not reach the new occupant.
  Simulation sim;
  const auto ran = sim.ScheduleAt(Milliseconds(1), [] {});
  sim.Run();
  int fired = 0;
  const auto fresh = sim.ScheduleAt(Milliseconds(2), [&] { ++fired; });
  ASSERT_EQ(fresh.slot, ran.slot);  // The slot was reused.
  EXPECT_FALSE(sim.Cancel(ran));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(fresh));
}

TEST(SimulationTest, StaleHandleOfCancelledEventLeavesSlotsNewEventAlone) {
  // The cancelled event's stub stays queued at 10 ms while a newer event
  // at 20 ms takes its slot: neither the stale handle nor the stale stub
  // may touch the newcomer.
  Simulation sim;
  const auto cancelled = sim.ScheduleAt(Milliseconds(10), [] {
    ADD_FAILURE() << "cancelled event ran";
  });
  ASSERT_TRUE(sim.Cancel(cancelled));
  std::vector<SimTime> fired;
  const auto fresh =
      sim.ScheduleAt(Milliseconds(20), [&] { fired.push_back(sim.now()); });
  ASSERT_EQ(fresh.slot, cancelled.slot);
  EXPECT_FALSE(sim.Cancel(cancelled));
  sim.Run();
  EXPECT_EQ(fired, std::vector<SimTime>({Milliseconds(20)}));
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulationTest, SameInstantFifoSurvivesCancelsAndSlotReuse) {
  // Cancels free low slots that later schedules reuse, so slot order and
  // scheduling order diverge; same-instant events must still run in
  // scheduling order.
  Simulation sim;
  std::vector<int> order;
  std::vector<int> expected;
  std::vector<std::pair<int, Simulation::EventHandle>> live;
  for (int i = 0; i < 500; ++i) {
    const auto handle =
        sim.ScheduleAt(Milliseconds(7), [&order, i] { order.push_back(i); });
    live.emplace_back(i, handle);
    if (i % 3 == 2) {
      // Cancel the oldest live event: its slot is reused by the next one.
      ASSERT_TRUE(sim.Cancel(live.front().second));
      live.erase(live.begin());
    }
  }
  for (const auto& [label, handle] : live) {
    expected.push_back(label);
  }
  EXPECT_EQ(sim.pending_events(), live.size());
  sim.Run();
  EXPECT_EQ(order, expected);
}

TEST(SimulationTest, PendingEventsCountsLiveEventsOnly) {
  Simulation sim;
  const auto a = sim.ScheduleAt(Milliseconds(1), [] {});
  sim.ScheduleAt(Milliseconds(2), [] {});
  sim.ScheduleAt(Milliseconds(3), [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  ASSERT_TRUE(sim.Cancel(a));
  EXPECT_EQ(sim.pending_events(), 2u);
  // The cancelled stub is still queued, so the next-event time is only a
  // lower bound.
  EXPECT_EQ(sim.next_pending_time(), Milliseconds(1));
  ASSERT_TRUE(sim.RunOne());
  EXPECT_EQ(sim.now(), Milliseconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.next_pending_time(), Simulation::kNoPendingEvent);
}

// The reference Simulation must match: a std::priority_queue of (time,
// seq, id) entries over callbacks in an id-keyed std::unordered_map, with
// cancelled ids skipped when they pop. Ids are never reused, so it shares
// none of the slab's slot bookkeeping.
class HeapEventLoop {
 public:
  struct EventHandle {
    uint64_t id = 0;
  };

  SimTime now() const { return now_; }

  EventHandle ScheduleAt(SimTime at, std::function<void()> cb) {
    const Entry entry{std::max(at, now_), next_seq_++, next_id_++};
    callbacks_.emplace(entry.id, std::move(cb));
    queue_.push(entry);
    return EventHandle{entry.id};
  }

  bool Cancel(EventHandle handle) { return callbacks_.erase(handle.id) > 0; }

  void Run() {
    while (!queue_.empty()) {
      const Entry entry = queue_.top();
      queue_.pop();
      auto it = callbacks_.find(entry.id);
      if (it == callbacks_.end()) {
        continue;  // Cancelled.
      }
      std::function<void()> cb = std::move(it->second);
      callbacks_.erase(it);
      now_ = entry.time;
      cb();
    }
  }

 private:
  struct Entry {
    SimTime time = 0;
    uint64_t seq = 0;
    uint64_t id = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_map<uint64_t, std::function<void()>> callbacks_;
};

// Simulation must produce the reference's execution exactly: same callback
// order, same clock, same Cancel results — including cancels of handles
// whose slot a newer event now holds. This is the bit-identity foundation
// everything above the simulation relies on.
TEST(SimulationEngineTest, MatchesHeapReference) {
  Prng seeds(99);
  for (int round = 0; round < 10; ++round) {
    const uint64_t seed = seeds.NextBelow(1u << 30);
    auto run = [seed](auto& sim) {
      using Handle =
          typename std::remove_reference_t<decltype(sim)>::EventHandle;
      Prng prng(seed);
      std::vector<std::pair<uint64_t, SimTime>> executed;
      std::vector<bool> cancels;
      std::vector<Handle> handles;
      uint64_t label = 0;
      std::function<void()> burst = [&] {
        const size_t n = prng.NextBelow(5);
        for (size_t i = 0; i < n; ++i) {
          const uint64_t my = ++label;
          SimTime at =
              sim.now() + static_cast<SimTime>(prng.NextBelow(Milliseconds(3)));
          handles.push_back(sim.ScheduleAt(at, [&, my] {
            executed.push_back({my, sim.now()});
            if (executed.size() < 600) {
              burst();
            }
          }));
        }
        // Randomly cancel one known handle — possibly already run.
        if (!handles.empty() && prng.NextBelow(3) == 0) {
          const Handle victim = handles[prng.NextBelow(handles.size())];
          cancels.push_back(sim.Cancel(victim));
        }
      };
      for (int i = 0; i < 5; ++i) {
        burst();
      }
      sim.Run();
      return std::make_pair(executed, cancels);
    };
    Simulation sim;
    HeapEventLoop reference;
    ASSERT_EQ(run(sim), run(reference)) << "engines diverged, seed " << seed;
  }
}

TEST(PeriodicTaskTest, FiresAtFixedPeriod) {
  Simulation sim;
  std::vector<SimTime> fires;
  PeriodicTask task(&sim, Milliseconds(100),
                    [&](SimTime t) { fires.push_back(t); });
  task.Start();
  sim.RunUntil(Milliseconds(350));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], Milliseconds(100));
  EXPECT_EQ(fires[1], Milliseconds(200));
  EXPECT_EQ(fires[2], Milliseconds(300));
}

TEST(PeriodicTaskTest, FireImmediatelyOption) {
  Simulation sim;
  std::vector<SimTime> fires;
  PeriodicTask task(&sim, Milliseconds(100),
                    [&](SimTime t) { fires.push_back(t); });
  task.Start(/*fire_immediately=*/true);
  sim.RunUntil(Milliseconds(250));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], 0);
}

TEST(PeriodicTaskTest, StopHaltsFiring) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(&sim, Milliseconds(10), [&](SimTime) { ++count; });
  task.Start();
  sim.RunUntil(Milliseconds(35));
  task.Stop();
  sim.RunUntil(Milliseconds(100));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, CallbackMayStopItself) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(&sim, Milliseconds(10), [&](SimTime) {
    if (++count == 2) {
      // Stop from inside the callback; no further fires.
    }
  });
  task.Start();
  sim.RunUntil(Milliseconds(25));
  task.Stop();
  sim.RunUntil(Milliseconds(200));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTaskTest, DestructorCancelsPendingFire) {
  Simulation sim;
  int count = 0;
  {
    PeriodicTask task(&sim, Milliseconds(10), [&](SimTime) { ++count; });
    task.Start();
    sim.RunUntil(Milliseconds(15));
  }  // Destroyed with a fire pending at t=20ms.
  sim.Run();
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace espk
