#include "src/sim/shard.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

namespace espk {
namespace {

int ClampThreads(const ShardGroup::Options& options) {
  return std::max(1, std::min(options.threads, options.shards));
}

}  // namespace

ShardGroup::ShardGroup(const Options& options)
    : lookahead_(options.lookahead),
      executor_(ClampThreads(options)) {
  assert(options.shards >= 1);
  assert(options.lookahead > 0);
  const size_t n = static_cast<size_t>(options.shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Simulation>());
  }
  links_.resize(n * n);  // A shard never posts itself: the diagonal idles.
  drain_scratch_.resize(n);
  epoch_stats_.resize(n);
  run_finish_tp_.resize(n);
  drained_total_.assign(n, 0);
}

ShardGroup::~ShardGroup() = default;

void ShardGroup::Post(int src, int dst, SimTime at, std::function<void()> fn) {
  assert(src >= 0 && src < shard_count());
  assert(dst >= 0 && dst < shard_count());
  if (src == dst) {
    sim(src)->ScheduleAt(at, std::move(fn));
    return;
  }
  assert(at >= epoch_end_ &&
         "cross-shard post inside the current epoch violates lookahead");
  Link& link = LinkFor(src, dst);
  Message m;
  m.at = at;
  m.src = static_cast<uint32_t>(src);
  m.seq = link.next_seq++;
  m.fn = std::move(fn);
  ++link.posted;
  link.inbox.push_back(std::move(m));
  link.high_watermark = std::max(link.high_watermark, link.inbox.size());
}

SimTime ShardGroup::NextEventTime() const {
  SimTime next = Simulation::kNoPendingEvent;
  for (const auto& shard : shards_) {
    next = std::min(next, shard->next_pending_time());
  }
  return next;
}

void ShardGroup::RunEpoch(SimTime epoch_end) {
  const SimTime epoch_start = now();
  epoch_end_ = epoch_end;
  in_epoch_ = true;
  const int n = shard_count();
  const bool measured = !hooks_.empty();
  executor_.ParallelFor(n, [&](int s) {
    if (measured) {
      const auto t0 = std::chrono::steady_clock::now();
      sim(s)->RunUntil(epoch_end);
      const auto t1 = std::chrono::steady_clock::now();
      epoch_stats_[static_cast<size_t>(s)].run_wall_ns =
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
      run_finish_tp_[static_cast<size_t>(s)] = t1;
    } else {
      sim(s)->RunUntil(epoch_end);
    }
  });
  if (measured) {
    // Barrier wait = zone finished -> last zone finished (the run barrier
    // closing); measured from the coordinator right after it.
    const auto barrier_tp = std::chrono::steady_clock::now();
    for (int s = 0; s < n; ++s) {
      epoch_stats_[static_cast<size_t>(s)].barrier_wait_ns =
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  barrier_tp - run_finish_tp_[static_cast<size_t>(s)])
                  .count());
    }
  }
  // Barrier passed: every shard is parked at epoch_end and nobody is
  // producing. Drain and schedule the messages each shard received.
  executor_.ParallelFor(n, [&](int dst) { DrainInto(dst); });
  in_epoch_ = false;
  ++epochs_run_;
  if (!hooks_.empty()) {
    EpochRecord record;
    record.start = epoch_start;
    record.end = epoch_end;
    record.index = epochs_run_ - 1;
    record.zones = epoch_stats_.data();
    for (BarrierHook* hook : hooks_) {
      hook->OnBarrier(record);
    }
  }
}

void ShardGroup::DrainInto(int dst) {
  std::vector<Message>& scratch = drain_scratch_[static_cast<size_t>(dst)];
  scratch.clear();
  epoch_stats_[static_cast<size_t>(dst)].drained = 0;
  const int n = shard_count();
  for (int src = 0; src < n; ++src) {
    if (src == dst) {
      continue;
    }
    Link& link = LinkFor(src, dst);
    for (Message& m : link.inbox) {
      scratch.push_back(std::move(m));
    }
    link.inbox.clear();
  }
  if (scratch.empty()) {
    return;
  }
  epoch_stats_[static_cast<size_t>(dst)].drained = scratch.size();
  drained_total_[static_cast<size_t>(dst)] += scratch.size();
  // (at, src, per-link seq) is a total order independent of thread timing —
  // the whole determinism story rests on sorting by it before scheduling.
  std::sort(scratch.begin(), scratch.end(),
            [](const Message& a, const Message& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  Simulation* dst_sim = sim(dst);
  for (Message& m : scratch) {
    assert(m.at >= dst_sim->now() && "drained message landed in the past");
    dst_sim->ScheduleAt(m.at, std::move(m.fn));
  }
  scratch.clear();
}

void ShardGroup::RunUntil(SimTime t) {
  assert(t >= now() && "cannot run the group clock backwards");
  while (now() < t) {
    // Any epoch end <= next_event + lookahead is conservative: events exist
    // only at >= next_event, and a message posted by an event at time tau
    // lands at >= tau + lookahead.
    const SimTime next = NextEventTime();
    SimTime epoch_end = t;
    if (next != Simulation::kNoPendingEvent && next <= t - lookahead_) {
      epoch_end = std::max(next + lookahead_, now() + lookahead_);
    }
    epoch_end = std::min(epoch_end, t);
    // Land a barrier exactly on the earliest hook alignment (sampler tick,
    // plane flush); a shorter epoch is always conservative.
    const SimTime align = HookAlignment();
    if (align > now() && align < epoch_end) {
      epoch_end = align;
    }
    RunEpoch(epoch_end);
  }
}

SimTime ShardGroup::HookAlignment() const {
  SimTime align = Simulation::kNoPendingEvent;
  for (const BarrierHook* hook : hooks_) {
    align = std::min(align, hook->NextAlignment());
  }
  return align;
}

void ShardGroup::AddBarrierHook(BarrierHook* hook) {
  assert(!in_epoch_);
  hooks_.push_back(hook);
}

void ShardGroup::RemoveBarrierHook(BarrierHook* hook) {
  assert(!in_epoch_);
  hooks_.erase(std::remove(hooks_.begin(), hooks_.end(), hook), hooks_.end());
}

uint64_t ShardGroup::messages_posted() const {
  uint64_t total = 0;
  for (const Link& link : links_) {
    total += link.posted;
  }
  return total;
}

uint64_t ShardGroup::zone_messages_posted(int dst) const {
  const size_t n = shards_.size();
  uint64_t total = 0;
  for (size_t src = 0; src < n; ++src) {
    total += links_[src * n + static_cast<size_t>(dst)].posted;
  }
  return total;
}

uint64_t ShardGroup::zone_messages_drained(int dst) const {
  return drained_total_[static_cast<size_t>(dst)];
}

size_t ShardGroup::zone_inbox_high_watermark(int dst) const {
  const size_t n = shards_.size();
  size_t high = 0;
  for (size_t src = 0; src < n; ++src) {
    high = std::max(
        high, links_[src * n + static_cast<size_t>(dst)].high_watermark);
  }
  return high;
}

}  // namespace espk
