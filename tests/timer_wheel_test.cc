// TimerWheel and EventMap (src/sim): the wheel must agree with a plain
// (time, seq) ordering oracle on every pop — including same-instant FIFO —
// and the Simulation built on them with the binary-heap event loop it
// replaced, because both the simulation's event contract and the sharded
// runtime's bit-identity guarantee rest on it. The EventMap must behave
// exactly like the std::unordered_map it replaced through arbitrary
// insert/erase churn.
#include "src/sim/timer_wheel.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/prng.h"
#include "src/sim/event_map.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

bool OracleBefore(const TimerEntry& a, const TimerEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

// Drains the wheel completely and checks the pop sequence equals the
// expected entries sorted by (time, seq).
void ExpectDrainsInOrder(TimerWheel* wheel, std::vector<TimerEntry> expected) {
  std::sort(expected.begin(), expected.end(), OracleBefore);
  TimerEntry out;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(wheel->PopEarliest(INT64_MAX, &out)) << "drained early at " << i;
    EXPECT_EQ(out.time, expected[i].time) << "pop " << i;
    EXPECT_EQ(out.seq, expected[i].seq) << "pop " << i;
    EXPECT_EQ(out.id, expected[i].id) << "pop " << i;
  }
  EXPECT_FALSE(wheel->PopEarliest(INT64_MAX, &out));
  EXPECT_TRUE(wheel->empty());
}

TEST(TimerWheelTest, PopsInTimeOrderAcrossLevels) {
  TimerWheel wheel;
  // Horizons spanning several wheel levels: sub-tick, a few ticks, and far
  // enough out to file at level 3+ and cascade back down.
  std::vector<TimerEntry> entries;
  uint64_t seq = 0;
  for (SimTime t : {int64_t{0}, int64_t{500}, Microseconds(3),
                    Microseconds(70), Milliseconds(5), Milliseconds(300),
                    Seconds(2), Seconds(90)}) {
    entries.push_back({t, seq, seq + 1});
    ++seq;
  }
  // Insert in reverse so filing order never matches pop order by accident.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    TimerEntry e = *it;
    e.seq = seq++;  // Fresh seqs in insertion order; times still reversed.
    wheel.Schedule(e);
  }
  TimerEntry out;
  SimTime last = -1;
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_TRUE(wheel.PopEarliest(INT64_MAX, &out));
    EXPECT_GE(out.time, last);
    last = out.time;
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, SameInstantStaysFifo) {
  TimerWheel wheel;
  std::vector<TimerEntry> entries;
  // A fleet's worth of same-instant timers (one decode per speaker), plus
  // same-tick-different-time neighbors that must still order by time.
  const SimTime t = Milliseconds(7);
  for (uint64_t i = 0; i < 500; ++i) {
    entries.push_back({t, i, i + 1});
  }
  entries.push_back({t + 1, 500, 501});
  entries.push_back({t - 1, 501, 502});
  for (const TimerEntry& e : entries) {
    wheel.Schedule(e);
  }
  ExpectDrainsInOrder(&wheel, entries);
}

TEST(TimerWheelTest, LimitBoundsPopsAndLeavesRestIntact) {
  TimerWheel wheel;
  wheel.Schedule({Milliseconds(1), 0, 1});
  wheel.Schedule({Milliseconds(10), 1, 2});
  TimerEntry out;
  ASSERT_TRUE(wheel.PopEarliest(Milliseconds(5), &out));
  EXPECT_EQ(out.id, 1u);
  EXPECT_FALSE(wheel.PopEarliest(Milliseconds(5), &out));
  EXPECT_EQ(wheel.size(), 1u);
  ASSERT_TRUE(wheel.PeekEarliest(&out));
  EXPECT_EQ(out.id, 2u);
  ASSERT_TRUE(wheel.PopEarliest(Milliseconds(10), &out));
  EXPECT_EQ(out.id, 2u);
}

TEST(TimerWheelTest, EntriesAtOrBeforeCursorJoinTheDueHeap) {
  TimerWheel wheel;
  wheel.Schedule({Milliseconds(5), 0, 1});
  TimerEntry out;
  ASSERT_TRUE(wheel.PopEarliest(INT64_MAX, &out));  // Cursor is now ~5 ms.
  // Scheduling at a time the cursor has already passed must still pop (the
  // simulation clamps times to now, which is at most the cursor instant).
  wheel.Schedule({Milliseconds(2), 1, 2});
  wheel.Schedule({Milliseconds(3), 2, 3});
  ASSERT_TRUE(wheel.PopEarliest(INT64_MAX, &out));
  EXPECT_EQ(out.id, 2u);
  ASSERT_TRUE(wheel.PopEarliest(INT64_MAX, &out));
  EXPECT_EQ(out.id, 3u);
}

TEST(TimerWheelTest, CascadeCounterCountsRefilingWork) {
  TimerWheel wheel;
  EXPECT_EQ(wheel.cascades(), 0u);
  // A near-term timer files at level 0 and pops without any re-filing.
  wheel.Schedule({100, 0, 1});
  TimerEntry out;
  ASSERT_TRUE(wheel.PopEarliest(INT64_MAX, &out));
  EXPECT_EQ(wheel.cascades(), 0u);
  // A far-future timer files high and descends a level at a time as the
  // cursor approaches — each descent is one cascade.
  wheel.Schedule({Seconds(90), 1, 2});
  ASSERT_TRUE(wheel.PopEarliest(INT64_MAX, &out));
  EXPECT_EQ(out.id, 2u);
  const uint64_t far_cascades = wheel.cascades();
  EXPECT_GT(far_cascades, 0u);
  // The counter is cumulative across pops (runtime telemetry reads it as a
  // monotone counter).
  wheel.Schedule({Seconds(180), 2, 3});
  ASSERT_TRUE(wheel.PopEarliest(INT64_MAX, &out));
  EXPECT_GT(wheel.cascades(), far_cascades);
}

TEST(TimerWheelTest, RandomizedAgainstSortOracle) {
  Prng prng(20260808);
  for (int round = 0; round < 20; ++round) {
    TimerWheel wheel;
    std::vector<TimerEntry> entries;
    uint64_t seq = 0;
    // Mixed horizons: clustered short timers with a heavy same-instant tail
    // plus occasional far-future outliers — the fleet workload's shape.
    const size_t n = 200 + prng.NextBelow(300);
    SimTime base = static_cast<SimTime>(prng.NextBelow(Seconds(1)));
    for (size_t i = 0; i < n; ++i) {
      SimTime t = base;
      switch (prng.NextBelow(4)) {
        case 0: t += static_cast<SimTime>(prng.NextBelow(Microseconds(2))); break;
        case 1: t += static_cast<SimTime>(prng.NextBelow(Milliseconds(1))); break;
        case 2: t += static_cast<SimTime>(prng.NextBelow(Seconds(1))); break;
        default: t += static_cast<SimTime>(prng.NextBelow(Seconds(200))); break;
      }
      entries.push_back({t, seq, seq + 1});
      ++seq;
    }
    for (const TimerEntry& e : entries) {
      wheel.Schedule(e);
    }
    ExpectDrainsInOrder(&wheel, entries);
  }
}

TEST(TimerWheelTest, InterleavedScheduleAndPopAgainstOracle) {
  // Schedule/pop interleaving with the cursor advancing between batches —
  // the pattern an event loop actually produces.
  Prng prng(7);
  TimerWheel wheel;
  std::vector<TimerEntry> pending;
  SimTime now = 0;
  uint64_t seq = 0;
  for (int step = 0; step < 400; ++step) {
    const size_t burst = 1 + prng.NextBelow(8);
    for (size_t i = 0; i < burst; ++i) {
      SimTime t = now + static_cast<SimTime>(prng.NextBelow(Milliseconds(20)));
      TimerEntry e{t, seq, seq + 1};
      ++seq;
      wheel.Schedule(e);
      pending.push_back(e);
    }
    const size_t pops = prng.NextBelow(burst + 2);
    for (size_t i = 0; i < pops && !pending.empty(); ++i) {
      auto next = std::min_element(pending.begin(), pending.end(), OracleBefore);
      TimerEntry out;
      ASSERT_TRUE(wheel.PopEarliest(INT64_MAX, &out));
      EXPECT_EQ(out.id, next->id);
      now = std::max(now, out.time);
      pending.erase(next);
    }
  }
  ExpectDrainsInOrder(&wheel, pending);
}

// The binary-heap event loop the timer wheel replaced, kept here as the
// reference Simulation must match: a (time, seq) priority queue of stubs,
// callbacks in an id-keyed map, cancelled ids skipped when they pop.
class HeapEventLoop {
 public:
  using EventHandle = Simulation::EventHandle;

  SimTime now() const { return now_; }

  EventHandle ScheduleAt(SimTime at, std::function<void()> cb) {
    const TimerEntry ev{std::max(at, now_), next_seq_++, next_id_++};
    callbacks_.emplace(ev.id, std::move(cb));
    queue_.push(ev);
    return EventHandle{ev.id};
  }

  bool Cancel(EventHandle handle) { return callbacks_.erase(handle.id) > 0; }

  void Run() {
    while (!queue_.empty()) {
      const TimerEntry ev = queue_.top();
      queue_.pop();
      auto it = callbacks_.find(ev.id);
      if (it == callbacks_.end()) {
        continue;  // Cancelled.
      }
      std::function<void()> cb = std::move(it->second);
      callbacks_.erase(it);
      now_ = ev.time;
      cb();
    }
  }

 private:
  struct Later {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return OracleBefore(b, a);
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, Later> queue_;
  std::unordered_map<uint64_t, std::function<void()>> callbacks_;
};

// Simulation must produce the reference's execution exactly: same callback
// order, same clock, same Cancel semantics. This is the bit-identity
// foundation everything above the simulation relies on.
TEST(SimulationEngineTest, WheelAndHeapExecuteIdentically) {
  Prng seeds(99);
  for (int round = 0; round < 10; ++round) {
    const uint64_t seed = seeds.NextBelow(1u << 30);
    auto run = [seed](auto& sim) {
      Prng prng(seed);
      std::vector<std::pair<uint64_t, SimTime>> executed;
      std::vector<Simulation::EventHandle> handles;
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
          sim.Cancel(handles[prng.NextBelow(handles.size())]);
        }
      };
      for (int i = 0; i < 5; ++i) {
        burst();
      }
      sim.Run();
      return executed;
    };
    Simulation wheel;
    HeapEventLoop heap;
    auto wheel_trace = run(wheel);
    auto heap_trace = run(heap);
    ASSERT_EQ(wheel_trace, heap_trace) << "engines diverged, seed " << seed;
  }
}

TEST(EventMapTest, InsertTakeEraseBasics) {
  EventMap map;
  int fired = 0;
  map.Insert(1, [&] { fired = 1; });
  map.Insert(2, [&] { fired = 2; });
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.Contains(1));
  EXPECT_FALSE(map.Contains(3));

  EventMap::Callback cb;
  ASSERT_TRUE(map.Take(1, &cb));
  cb();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(map.Contains(1));
  EXPECT_FALSE(map.Take(1, &cb));  // Already taken.

  EXPECT_TRUE(map.Erase(2));
  EXPECT_FALSE(map.Erase(2));
  EXPECT_TRUE(map.empty());
}

TEST(EventMapTest, GrowsAndShrinksAcrossBursts) {
  EventMap map;
  const size_t initial_capacity = map.capacity();
  for (uint64_t id = 1; id <= 10000; ++id) {
    map.Insert(id, [] {});
  }
  EXPECT_EQ(map.size(), 10000u);
  EXPECT_GT(map.capacity(), initial_capacity);
  for (uint64_t id = 1; id <= 10000; ++id) {
    EXPECT_TRUE(map.Erase(id));
  }
  EXPECT_TRUE(map.empty());
  // A one-off spike must not pin the high-water capacity.
  EXPECT_EQ(map.capacity(), initial_capacity);
}

TEST(EventMapTest, RandomizedChurnAgainstUnorderedMapOracle) {
  Prng prng(31337);
  EventMap map;
  std::unordered_map<uint64_t, int> oracle;
  uint64_t next_id = 1;
  int executed_sum = 0;
  int oracle_sum = 0;
  for (int step = 0; step < 50000; ++step) {
    const uint64_t op = prng.NextBelow(10);
    if (op < 5 || oracle.empty()) {
      const uint64_t id = next_id++;
      const int value = static_cast<int>(prng.NextBelow(1000));
      map.Insert(id, [&executed_sum, value] { executed_sum += value; });
      oracle[id] = value;
    } else {
      // Pick an id biased toward recent ones (the event queue's pattern:
      // mostly near-future events pop or cancel soon after scheduling).
      uint64_t id = 1 + prng.NextBelow(next_id - 1);
      const bool present = oracle.count(id) > 0;
      ASSERT_EQ(map.Contains(id), present);
      if (op < 8) {
        EventMap::Callback cb;
        ASSERT_EQ(map.Take(id, &cb), present);
        if (present) {
          cb();
          oracle_sum += oracle[id];
          oracle.erase(id);
        }
      } else {
        ASSERT_EQ(map.Erase(id), present);
        oracle.erase(id);
      }
    }
    ASSERT_EQ(map.size(), oracle.size());
  }
  EXPECT_EQ(executed_sum, oracle_sum);
  // Everything left is still reachable (backward-shift deletion never
  // strands a probe chain).
  for (const auto& [id, value] : oracle) {
    ASSERT_TRUE(map.Contains(id)) << id;
  }
}

}  // namespace
}  // namespace espk
