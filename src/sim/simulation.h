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
// The queue is a hashed hierarchical timer wheel (src/sim/timer_wheel.h)
// plus an open-addressing callback table (src/sim/event_map.h): O(1)
// schedule, no per-event node allocation. tests/timer_wheel_test.cc runs it
// against a binary-heap event loop as the ordering reference.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/time_types.h"
#include "src/sim/event_map.h"
#include "src/sim/timer_wheel.h"

namespace espk {

class Simulation {
 public:
  using Callback = std::function<void()>;

  // Identifies a scheduled event so it can be cancelled. Id 0 is never used.
  struct EventHandle {
    uint64_t id = 0;
    bool valid() const { return id != 0; }
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
  // event is a harmless no-op. Returns true if the event was still pending.
  // The callback — and whatever state it captured — is destroyed here, not
  // when the event's deadline would have popped: callbacks live out-of-line
  // in an id-keyed table, and only a small (time, seq, id) stub stays queued.
  bool Cancel(EventHandle handle);

  // Runs the single earliest event; returns false if the queue is empty.
  bool RunOne();

  // Runs events until the queue is empty.
  void Run();

  // Runs all events with time <= t, then advances the clock to exactly t.
  void RunUntil(SimTime t);

  // RunUntil(now() + d).
  void RunFor(SimDuration d);

  size_t pending_events() const { return callbacks_.size(); }
  uint64_t events_processed() const { return events_processed_; }

  // Timer-wheel cascade count. Part of the sharded runtime's self-telemetry.
  uint64_t timer_cascades() const { return wheel_.cascades(); }

  // Lower bound on the time of the next live event: the earliest queued
  // stub, which may belong to an already-cancelled event (so the true next
  // event can only be later, never earlier). kNoPendingEvent when nothing
  // is queued. The sharded runtime's epoch planner uses this to jump over
  // idle stretches instead of grinding lookahead-sized epochs through them.
  static constexpr SimTime kNoPendingEvent = INT64_MAX;
  SimTime next_pending_time();

 private:
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t events_processed_ = 0;
  // Stubs of pending events. A popped stub whose id is no longer in
  // callbacks_ is a cancelled event's residue and is skipped.
  TimerWheel wheel_;
  EventMap callbacks_;  // Pending events only.
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

  void set_period(SimDuration period) { period_ = period; }
  SimDuration period() const { return period_; }

 private:
  void Arm(SimDuration delay);

  Simulation* sim_;
  SimDuration period_;
  TickCallback cb_;
  bool running_ = false;
  Simulation::EventHandle pending_;
};

// A list of parked continuations — the simulation-world analogue of a kernel
// sleep queue / condition variable. The kernel uses these for blocking
// audio writes (tsleep/wakeup in OpenBSD terms).
class WaitQueue {
 public:
  explicit WaitQueue(Simulation* sim) : sim_(sim) {}

  // Parks `resume` until a Notify; resumptions run as fresh events at the
  // notification time (never synchronously inside Notify).
  void Wait(Simulation::Callback resume);

  // Wakes the oldest waiter / all waiters.
  void NotifyOne();
  void NotifyAll();

  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulation* sim_;
  std::vector<Simulation::Callback> waiters_;
};

}  // namespace espk

#endif  // SRC_SIM_SIMULATION_H_
