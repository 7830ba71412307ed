// Discrete-event simulation engine. Everything in the Ethernet Speaker
// reproduction that the paper ran in real time — the kernel's audio clock,
// packet transmission on the LAN, speaker playback — runs on this virtual
// clock instead, so experiments are deterministic and a "60 second" run
// finishes in milliseconds.
//
// The engine is intentionally minimal: a time-ordered queue of callbacks.
// Events scheduled at the same instant run in scheduling order (stable FIFO),
// which the protocol relies on ("everybody receives a multicast packet at the
// same time", §3.2).
//
// The queue is a binary min-heap of small (time, seq, slot) stubs over a
// slab of callback slots with a free list. Zones batch per-speaker work into
// one event per instant, so a shard holds hundreds to a few thousand pending
// events (DESIGN.md records the measured peaks) and the heap stays shallow;
// the slab and heap keep their capacity, so the steady state does not
// allocate. tests/sim_test.cc runs it against a reference event loop built
// on std::priority_queue and std::unordered_map.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/time_types.h"

namespace espk {

class Simulation {
 public:
  using Callback = std::function<void()>;

  // Identifies a scheduled event so it can be cancelled: the event's
  // scheduling sequence number (never 0) and the slab slot holding its
  // callback. The slot is reused once the event runs or is cancelled; the
  // seq tells a stale handle from the slot's new occupant.
  struct EventHandle {
    uint64_t seq = 0;
    uint32_t slot = 0;
    bool valid() const { return seq != 0; }
  };

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  // Schedules `cb` to run at absolute time `at` (clamped to now).
  EventHandle ScheduleAt(SimTime at, Callback cb);
  // Schedules `cb` to run `delay` after now (negative delays clamp to now).
  EventHandle ScheduleAfter(SimDuration delay, Callback cb);

  // Cancels a pending event. Cancelling an already-run or already-cancelled
  // event is a harmless no-op, even after its slot holds a newer event.
  // Returns true if the event was still pending. The callback — and whatever
  // state it captured — is destroyed here, not when the event's deadline
  // would have popped: only the small (time, seq, slot) stub stays queued.
  bool Cancel(EventHandle handle);

  // Runs the single earliest event; returns false if the queue is empty.
  bool RunOne();

  // Runs events until the queue is empty.
  void Run();

  // Runs all events with time <= t, then advances the clock to exactly t.
  void RunUntil(SimTime t);

  // RunUntil(now() + d).
  void RunFor(SimDuration d);

  // Live events only; stubs of cancelled events are not counted.
  size_t pending_events() const { return slots_.size() - free_slots_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  // Lower bound on the time of the next live event: the earliest queued
  // stub, which may belong to an already-cancelled event (so the true next
  // event can only be later, never earlier). kNoPendingEvent when nothing
  // is queued. The sharded runtime's epoch planner uses this to jump over
  // idle stretches instead of grinding lookahead-sized epochs through them.
  static constexpr SimTime kNoPendingEvent = INT64_MAX;
  SimTime next_pending_time() const {
    return heap_.empty() ? kNoPendingEvent : heap_.front().time;
  }

 private:
  struct Stub {
    SimTime time = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;
  };
  struct Slot {
    Callback cb;
    uint64_t seq = 0;  // The pending event's seq; 0 while the slot is free.
  };

  // Pops stubs until one whose event is still pending and due by `limit`
  // runs; false when no such event is queued.
  bool RunNext(SimTime limit);

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  // Min-heap on (time, seq). A popped stub whose slot no longer holds its
  // seq is a cancelled event's residue and is skipped.
  std::vector<Stub> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

// Repeats a callback with a fixed period until stopped. The callback receives
// the current simulated time. The first firing is one period after Start (or
// at Start time if `fire_immediately`).
class PeriodicTask {
 public:
  using TickCallback = std::function<void(SimTime)>;

  PeriodicTask(Simulation* sim, SimDuration period, TickCallback cb);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Start(bool fire_immediately = false);
  void Stop();
  bool running() const { return running_; }

 private:
  void Arm(SimDuration delay);

  Simulation* sim_;
  SimDuration period_;
  TickCallback cb_;
  bool running_ = false;
  Simulation::EventHandle pending_;
};

}  // namespace espk

#endif  // SRC_SIM_SIMULATION_H_
