// Sharded simulation runtime: per-zone event loops synchronized by a
// conservative lookahead barrier. Each shard is a Simulation (its own
// virtual clock + timer wheel) hosting one zone of the fleet; a ShardGroup
// advances all shards in lockstep epochs and ferries cross-shard work
// through per-link inboxes. A one-shard group is an ordinary event loop
// driven in lookahead-sized epochs (no link exists, so nothing crosses).
//
// Conservative PDES, concretely: the only way shards influence each other
// is Post(src, dst, at, fn) — deliver `fn` on shard `dst` at time `at` —
// and every post promises at >= the current epoch's end (asserted). That
// promise holds because cross-shard interaction in this system is packet
// delivery over the simulated segment, whose propagation delay is at least
// `lookahead` (the ShardGroup is configured with lookahead = the minimum
// cross-shard link latency, 50 us for the paper's LAN). So an epoch of
// [T, T+lookahead) can run on every shard with no incoming information:
// anything a peer sends during the epoch lands at or after T+lookahead.
// At the epoch barrier each shard drains its inboxes, sorts the messages
// by (at, src shard, per-link seq) — a total, platform-independent order —
// and schedules them locally. Results are therefore deterministic and
// bit-identical run-to-run AND identical whether the group runs on one
// thread or many (tests/shard_test.cc holds both).
//
// Idle stretches don't cost epochs: the epoch planner asks every shard for
// its next pending event time and extends the epoch to cover dead air
// (an epoch may end at next_event + lookahead, not merely now + lookahead,
// because a message posted by an event at time t lands at >= t + lookahead).
//
// Memory model: during an epoch, shard i's state is touched only by the
// executor thread running shard i. Each directed link's inbox is a plain
// vector, safe without a lock or atomics because the phases never overlap:
// only the src shard appends, and only during the run phase; only the dst
// shard drains, and only after the run barrier — the executor's barrier
// provides the happens-before edge.
#ifndef SRC_SIM_SHARD_H_
#define SRC_SIM_SHARD_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/time_types.h"
#include "src/sim/executor.h"
#include "src/sim/simulation.h"

namespace espk {

class ShardGroup {
 public:
  struct Options {
    int shards = 1;
    // Epoch length = the minimum latency of any cross-shard interaction.
    // Must be positive; posting with at < epoch end asserts. The system
    // passes its LAN's base_delay.
    SimDuration lookahead = Microseconds(50);
    // Executor width including the caller; clamped to [1, shards]. 1 means
    // fully inline (no threads) — same results either way. Workers are not
    // pinned to cores.
    int threads = 1;
  };

  // Wall-clock cost of one zone's last epoch, measured only while at least
  // one BarrierHook is registered (the measurement itself costs two clock
  // reads per zone per epoch).
  struct ZoneEpochStats {
    uint64_t run_wall_ns = 0;      // Wall time inside the run phase.
    uint64_t barrier_wait_ns = 0;  // Zone finished -> run barrier closed.
    uint64_t drained = 0;          // Messages drained into the zone.
  };

  struct EpochRecord {
    SimTime start = 0;
    SimTime end = 0;
    uint64_t index = 0;                    // epochs_run() - 1 for this epoch.
    const ZoneEpochStats* zones = nullptr;  // shard_count() entries.
  };

  // Runs on the coordinating thread at every epoch barrier, after the drain
  // phase, with every shard parked at record.end — a single-threaded safe
  // point where all shard state may be read. The ZoneCollector
  // (src/obs/zone_collector.h) merges traces and snapshots runtime stats
  // here.
  class BarrierHook {
   public:
    virtual ~BarrierHook() = default;
    // Earliest sim time this hook needs a barrier to land exactly on (e.g.
    // a sampler tick). The epoch planner clamps epochs so it does; shorter
    // epochs are always conservative. kNoPendingEvent means no constraint.
    virtual SimTime NextAlignment() const {
      return Simulation::kNoPendingEvent;
    }
    virtual void OnBarrier(const EpochRecord& record) = 0;
  };

  explicit ShardGroup(const Options& options);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Simulation* sim(int i) { return shards_[static_cast<size_t>(i)].get(); }
  SimDuration lookahead() const { return lookahead_; }

  // The group clock is shard 0's clock; every shard's now() equals it
  // between epochs. Code that drives shard 0 directly (sim(0)->RunUntil)
  // therefore moves the group clock too, and the next RunUntil/RunFor
  // continues from there.
  SimTime now() const { return shards_[0]->now(); }

  // True while RunEpoch is executing shard events (run phase through drain).
  // Lets callers holding both-mode code paths (e.g. segment membership
  // changes) distinguish "running on a shard mid-epoch — must Post" from
  // "setup code outside RunUntil — may mutate directly". Safe to read from
  // shard threads: the flag flips only on the coordinating thread, and the
  // executor's task handoff/barrier publishes it.
  bool in_epoch() const { return in_epoch_; }

  // Deliver `fn` on shard `dst` at absolute time `at`. Callable only from
  // code running on shard `src` during an epoch (or from outside RunUntil
  // entirely, e.g. test setup). at must be >= the current epoch's end for
  // src != dst; a same-shard post is just a local ScheduleAt.
  void Post(int src, int dst, SimTime at, std::function<void()> fn);

  // Advances every shard to exactly time t (epoch loop with barriers).
  void RunUntil(SimTime t);
  void RunFor(SimDuration d) { RunUntil(now() + d); }

  // Observability for tests and bench: epochs executed so far and total
  // cross-shard messages. The count is aggregated from per-link
  // producer-owned fields, so call it between runs, not mid-epoch.
  uint64_t epochs_run() const { return epochs_run_; }
  uint64_t messages_posted() const;
  // Always 0: inboxes are unbounded, so nothing overflows. Kept only
  // because perfbench still reports it as sim.ring_spills.
  uint64_t ring_spills() const { return 0; }

  // Per-zone inbound accounting, summed over every link into `dst`. Same
  // phase discipline as the total above: call between epochs (the fields
  // are producer-owned during one), or from a BarrierHook.
  uint64_t zone_messages_posted(int dst) const;
  uint64_t zone_messages_drained(int dst) const;
  // Highest inbox size any single link into `dst` ever reached at post
  // time, i.e. the most messages one peer sent it in one epoch.
  size_t zone_inbox_high_watermark(int dst) const;

  // Hooks are fired in registration order at every barrier; RemoveBarrierHook
  // is a no-op for an unregistered hook. Register only between epochs.
  void AddBarrierHook(BarrierHook* hook);
  void RemoveBarrierHook(BarrierHook* hook);

  const Executor& executor() const { return executor_; }

 private:
  struct Message {
    SimTime at = 0;
    uint32_t src = 0;
    uint64_t seq = 0;  // Per (src, dst) link, assigned by the producer.
    std::function<void()> fn;
  };
  // One directed link src -> dst. The inbox is phase-separated (appended
  // in the run phase, drained after the barrier) rather than locked.
  struct Link {
    std::vector<Message> inbox;
    // Producer-owned bookkeeping (only the src shard's thread touches it
    // during an epoch; the barrier publishes it to everyone else).
    uint64_t next_seq = 0;
    uint64_t posted = 0;
    size_t high_watermark = 0;  // Peak inbox size at post time.
  };

  Link& LinkFor(int src, int dst) {
    return links_[static_cast<size_t>(src) * shards_.size() +
                  static_cast<size_t>(dst)];
  }
  // Runs one epoch ending at `epoch_end`, including the drain phase.
  void RunEpoch(SimTime epoch_end);
  void DrainInto(int dst);
  // Earliest pending event across shards, kNoPendingEvent when none.
  SimTime NextEventTime();
  // Earliest NextAlignment() over registered hooks.
  SimTime HookAlignment() const;

  SimDuration lookahead_;
  SimTime epoch_end_ = 0;  // Valid during RunEpoch; read by Post asserts.
  bool in_epoch_ = false;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<Link> links_;  // shards x shards, diagonal unused.
  Executor executor_;
  uint64_t epochs_run_ = 0;
  // Per-destination merge buffer, reused across epochs (drain of shard d
  // touches only drain_scratch_[d]).
  std::vector<std::vector<Message>> drain_scratch_;
  std::vector<BarrierHook*> hooks_;
  // Per-zone wall-clock stats for the epoch in flight. Each entry is written
  // by the thread running that zone during the run/drain phases and read by
  // the coordinator after the barrier.
  std::vector<ZoneEpochStats> epoch_stats_;
  std::vector<std::chrono::steady_clock::time_point> run_finish_tp_;
  std::vector<uint64_t> drained_total_;
};

}  // namespace espk

#endif  // SRC_SIM_SHARD_H_
