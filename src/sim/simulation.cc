#include "src/sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace espk {
namespace {

// Comparator for std::push_heap/pop_heap, which build max-heaps: "later"
// on (time, seq) puts the earliest stub at the front.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.time != b.time ? a.time > b.time : a.seq > b.seq;
};

}  // namespace

Simulation::EventHandle Simulation::ScheduleAt(SimTime at, Callback cb) {
  assert(cb && "scheduling a null callback");
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const uint64_t seq = next_seq_++;
  slots_[slot].cb = std::move(cb);
  slots_[slot].seq = seq;
  heap_.push_back(Stub{std::max(at, now_), seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  return EventHandle{seq, slot};
}

Simulation::EventHandle Simulation::ScheduleAfter(SimDuration delay,
                                                  Callback cb) {
  return ScheduleAt(now_ + std::max<SimDuration>(delay, 0), std::move(cb));
}

bool Simulation::Cancel(EventHandle handle) {
  if (!handle.valid()) {
    return false;
  }
  assert(handle.slot < slots_.size() && "handle from another Simulation");
  Slot& s = slots_[handle.slot];
  if (s.seq != handle.seq) {
    return false;  // Already ran or cancelled; the slot may hold a newer event.
  }
  // Free the slot before the callback dies: destroying captured state may
  // schedule or cancel events and so reallocate slots_. The queued stub is
  // skipped when it eventually pops.
  Callback doomed = std::move(s.cb);
  s.seq = 0;
  free_slots_.push_back(handle.slot);
  return true;
}

bool Simulation::RunNext(SimTime limit) {
  while (!heap_.empty() && heap_.front().time <= limit) {
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    const Stub stub = heap_.back();
    heap_.pop_back();
    Slot& s = slots_[stub.slot];
    if (s.seq != stub.seq) {
      continue;  // Cancelled: only the stub was left behind.
    }
    Callback cb = std::move(s.cb);
    s.seq = 0;
    free_slots_.push_back(stub.slot);
    assert(stub.time >= now_ && "event queue went backwards");
    now_ = stub.time;
    ++events_processed_;
    cb();
    return true;
  }
  return false;
}

bool Simulation::RunOne() { return RunNext(kNoPendingEvent); }

void Simulation::Run() {
  while (RunOne()) {
  }
}

void Simulation::RunUntil(SimTime t) {
  assert(t >= now_ && "cannot run the clock backwards");
  while (RunNext(t)) {
  }
  now_ = t;
}

void Simulation::RunFor(SimDuration d) { RunUntil(now_ + d); }

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

}  // namespace espk
