#include "src/sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace espk {

Simulation::EventHandle Simulation::ScheduleAt(SimTime at, Callback cb) {
  assert(cb && "scheduling a null callback");
  TimerEntry ev;
  ev.time = std::max(at, now_);
  ev.seq = next_seq_++;
  ev.id = next_id_++;
  EventHandle handle{ev.id};
  callbacks_.Insert(ev.id, std::move(cb));
  wheel_.Schedule(ev);
  return handle;
}

Simulation::EventHandle Simulation::ScheduleAfter(SimDuration delay,
                                                  Callback cb) {
  return ScheduleAt(now_ + std::max<SimDuration>(delay, 0), std::move(cb));
}

bool Simulation::Cancel(EventHandle handle) {
  // Erasing the table entry destroys the callback (and any state it
  // captured) right now; the queued stub is skipped when it eventually pops.
  return handle.valid() && callbacks_.Erase(handle.id);
}

bool Simulation::RunOne() {
  TimerEntry ev;
  while (wheel_.PopEarliest(std::numeric_limits<SimTime>::max(), &ev)) {
    Callback cb;
    if (!callbacks_.Take(ev.id, &cb)) {
      continue;  // Cancelled: only the stub was left behind.
    }
    assert(ev.time >= now_ && "event queue went backwards");
    now_ = ev.time;
    ++events_processed_;
    cb();
    return true;
  }
  return false;
}

void Simulation::Run() {
  while (RunOne()) {
  }
}

void Simulation::RunUntil(SimTime t) {
  assert(t >= now_ && "cannot run the clock backwards");
  TimerEntry ev;
  while (wheel_.PopEarliest(t, &ev)) {
    Callback cb;
    if (!callbacks_.Take(ev.id, &cb)) {
      continue;  // Cancelled stub.
    }
    assert(ev.time >= now_ && "event queue went backwards");
    now_ = ev.time;
    ++events_processed_;
    cb();
  }
  now_ = t;
}

void Simulation::RunFor(SimDuration d) { RunUntil(now_ + d); }

SimTime Simulation::next_pending_time() {
  TimerEntry e;
  return wheel_.PeekEarliest(&e) ? e.time : kNoPendingEvent;
}

PeriodicTask::PeriodicTask(Simulation* sim, SimDuration period,
                           TickCallback cb)
    : sim_(sim), period_(period), cb_(std::move(cb)) {
  assert(period > 0 && "periodic task needs positive period");
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start(bool fire_immediately) {
  if (running_) {
    return;
  }
  running_ = true;
  Arm(fire_immediately ? 0 : period_);
}

void PeriodicTask::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  sim_->Cancel(pending_);
  pending_ = Simulation::EventHandle{};
}

void PeriodicTask::Arm(SimDuration delay) {
  pending_ = sim_->ScheduleAfter(delay, [this] {
    if (!running_) {
      return;
    }
    cb_(sim_->now());
    if (running_) {  // The callback may have called Stop().
      Arm(period_);
    }
  });
}

void WaitQueue::Wait(Simulation::Callback resume) {
  waiters_.push_back(std::move(resume));
}

void WaitQueue::NotifyOne() {
  if (waiters_.empty()) {
    return;
  }
  auto resume = std::move(waiters_.front());
  waiters_.erase(waiters_.begin());
  sim_->ScheduleAfter(0, std::move(resume));
}

void WaitQueue::NotifyAll() {
  std::vector<Simulation::Callback> all = std::move(waiters_);
  waiters_.clear();
  for (auto& resume : all) {
    sim_->ScheduleAfter(0, std::move(resume));
  }
}

}  // namespace espk
