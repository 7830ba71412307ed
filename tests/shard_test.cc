// ShardGroup (src/sim/shard.h): conservative-lookahead epoch execution.
// The properties pinned here are the sharded runtime's whole contract:
// cross-shard posts land at the right time in a total deterministic order,
// results are identical for any executor width, heavy traffic on one link
// or on every link at once loses and reorders nothing, and the epoch
// planner skips idle stretches instead of grinding through them.
#include "src/sim/shard.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time_types.h"

namespace espk {
namespace {

using Trace = std::vector<std::tuple<int, SimTime, int>>;  // (shard, at, token)

// Runs a token-passing chain: token k starts on shard 0 at t = k ns; a
// shard holding it records it and forwards it to the next shard
// `hop_delay` later, for `hops` hops total. Returns every shard's record,
// merged in (shard, at, token) order — any scheduling nondeterminism would
// change per-shard contents, not merely the merge order.
Trace RunChain(int shards, int threads, int tokens, int hops,
               SimDuration hop_delay) {
  ShardGroup::Options options;
  options.shards = shards;
  options.threads = threads;
  options.lookahead = Microseconds(50);
  ShardGroup group(options);

  std::vector<Trace> per_shard(static_cast<size_t>(shards));
  // Self-referential hop closure; captured by copy into each post.
  struct Hop {
    ShardGroup* group;
    std::vector<Trace>* records;
    int shards;
    SimDuration delay;
    void operator()(int shard, int token, int hops_left) const {
      (*records)[static_cast<size_t>(shard)].push_back(
          {shard, group->sim(shard)->now(), token});
      if (hops_left == 0) {
        return;
      }
      const int next = (shard + 1) % shards;
      const SimTime at = group->sim(shard)->now() + delay;
      Hop self = *this;
      group->Post(shard, next, at, [self, next, token, hops_left] {
        self(next, token, hops_left - 1);
      });
    }
  };
  Hop hop{&group, &per_shard, shards, hop_delay};
  for (int token = 0; token < tokens; ++token) {
    group.sim(0)->ScheduleAt(token, [hop, token, hops] {
      hop(0, token, hops);
    });
  }
  // The last token's last hop lands at tokens - 1 + hops * hop_delay.
  group.RunUntil(tokens + hops * hop_delay);

  Trace merged;
  for (const Trace& t : per_shard) {
    merged.insert(merged.end(), t.begin(), t.end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

TEST(ShardGroupTest, CrossShardPostDeliversAtRequestedTime) {
  ShardGroup::Options options;
  options.shards = 2;
  options.lookahead = Microseconds(50);
  ShardGroup group(options);
  SimTime delivered_at = -1;
  SimTime local_now = -1;
  group.sim(0)->ScheduleAt(Milliseconds(1), [&] {
    group.Post(0, 1, Milliseconds(1) + Microseconds(50), [&] {
      delivered_at = group.sim(1)->now();
    });
  });
  group.sim(1)->ScheduleAt(Milliseconds(2), [&] {
    local_now = group.sim(1)->now();
  });
  group.RunUntil(Milliseconds(3));
  EXPECT_EQ(delivered_at, Milliseconds(1) + Microseconds(50));
  EXPECT_EQ(local_now, Milliseconds(2));
  EXPECT_EQ(group.messages_posted(), 1u);
}

TEST(ShardGroupTest, SameShardPostIsLocal) {
  ShardGroup::Options options;
  options.shards = 2;
  ShardGroup group(options);
  bool ran = false;
  // A same-shard post is an ordinary ScheduleAt: no lookahead constraint,
  // no inbox traffic.
  group.Post(1, 1, Microseconds(1), [&] { ran = true; });
  group.RunUntil(Milliseconds(1));
  EXPECT_TRUE(ran);
  EXPECT_EQ(group.messages_posted(), 0u);
}

TEST(ShardGroupTest, RunUntilAdvancesEveryShardClock) {
  ShardGroup::Options options;
  options.shards = 3;
  ShardGroup group(options);
  group.RunUntil(Milliseconds(7));
  EXPECT_EQ(group.now(), Milliseconds(7));
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(group.sim(s)->now(), Milliseconds(7)) << "shard " << s;
  }
}

TEST(ShardGroupTest, ResultsIdenticalForAnyExecutorWidth) {
  // The determinism claim, directly: same chain, executor width 1 (fully
  // inline) vs 4 (worker threads), bit-identical traces.
  Trace inline_trace = RunChain(4, 1, 16, 12, Microseconds(75));
  Trace threaded_trace = RunChain(4, 4, 16, 12, Microseconds(75));
  ASSERT_FALSE(inline_trace.empty());
  EXPECT_EQ(inline_trace, threaded_trace);
  // And run-to-run stability at the same width.
  Trace threaded_again = RunChain(4, 4, 16, 12, Microseconds(75));
  EXPECT_EQ(threaded_trace, threaded_again);
}

TEST(ShardGroupTest, HeavyTrafficOnOneLinkLosesAndReordersNothing) {
  // 5000 tokens start within 5 us, inside the first 50 us epoch, so the
  // 0 -> 1 link carries all of them in one epoch; every hop must still land
  // on the right shard at the right time.
  constexpr int kTokens = 5000;
  constexpr int kHops = 6;
  const SimDuration delay = Microseconds(60);
  Trace expected;
  for (int token = 0; token < kTokens; ++token) {
    for (int hop = 0; hop <= kHops; ++hop) {
      expected.emplace_back(hop % 2, token + hop * delay, token);
    }
  }
  std::sort(expected.begin(), expected.end());
  Trace inline_trace = RunChain(2, 1, kTokens, kHops, delay);
  EXPECT_EQ(inline_trace.size(), 7u * kTokens);
  EXPECT_EQ(inline_trace, expected);
  EXPECT_EQ(RunChain(2, 2, kTokens, kHops, delay), inline_trace);
}

// Every shard posts `per_link` messages to every other shard inside the
// first epoch, all shards at the same instants, so every link is written
// at once and each drain has to order same-instant messages from several
// sources. Returns each shard's deliveries in execution order, shard by
// shard (no re-sorting: the drain order itself is under test).
Trace RunAllToAll(int shards, int threads, int per_link,
                  uint64_t* posted_out, size_t* high_watermark_out) {
  ShardGroup::Options options;
  options.shards = shards;
  options.threads = threads;
  options.lookahead = Microseconds(50);
  ShardGroup group(options);
  std::vector<Trace> per_shard(static_cast<size_t>(shards));
  for (int src = 0; src < shards; ++src) {
    for (int i = 0; i < per_link; ++i) {
      group.sim(src)->ScheduleAt(10 * i, [&group, &per_shard, shards, src,
                                          i] {
        const SimTime at = group.sim(src)->now() + Microseconds(60);
        for (int dst = 0; dst < shards; ++dst) {
          if (dst == src) {
            continue;
          }
          group.Post(src, dst, at, [&group, &per_shard, src, dst, i] {
            per_shard[static_cast<size_t>(dst)].emplace_back(
                dst, group.sim(dst)->now(), src * 1000 + i);
          });
        }
      });
    }
  }
  group.RunUntil(Milliseconds(1));
  *posted_out = group.messages_posted();
  *high_watermark_out = 0;
  for (int z = 0; z < shards; ++z) {
    *high_watermark_out =
        std::max(*high_watermark_out, group.zone_inbox_high_watermark(z));
  }
  Trace merged;
  for (const Trace& t : per_shard) {
    merged.insert(merged.end(), t.begin(), t.end());
  }
  return merged;
}

TEST(ShardGroupTest, AllToAllTrafficDrainsInTotalOrder) {
  // 4 shards x 3 peers x 300 messages, all 12 links written in one epoch.
  constexpr int kShards = 4;
  constexpr int kPerLink = 300;
  // Same-instant messages run in source-shard order on every destination.
  Trace expected;
  for (int dst = 0; dst < kShards; ++dst) {
    for (int i = 0; i < kPerLink; ++i) {
      for (int src = 0; src < kShards; ++src) {
        if (src != dst) {
          expected.emplace_back(dst, 10 * i + Microseconds(60),
                                src * 1000 + i);
        }
      }
    }
  }
  uint64_t posted = 0;
  size_t high_watermark = 0;
  Trace inline_trace =
      RunAllToAll(kShards, 1, kPerLink, &posted, &high_watermark);
  EXPECT_EQ(posted, 3600u);
  EXPECT_EQ(high_watermark, 300u);
  EXPECT_EQ(inline_trace, expected);
  Trace threaded_trace =
      RunAllToAll(kShards, 4, kPerLink, &posted, &high_watermark);
  EXPECT_EQ(posted, 3600u);
  EXPECT_EQ(threaded_trace, inline_trace);
}

TEST(ShardGroupTest, EpochPlannerJumpsIdleStretches) {
  // Two events a full second apart with 50 us lookahead, and another
  // second of silence after them: a naive epoch loop would grind ~40000
  // epochs; the planner must jump the dead air.
  ShardGroup::Options options;
  options.shards = 2;
  options.lookahead = Microseconds(50);
  ShardGroup group(options);
  int ran = 0;
  group.sim(0)->ScheduleAt(Microseconds(10), [&] { ++ran; });
  group.sim(1)->ScheduleAt(Seconds(1), [&] { ++ran; });
  group.RunUntil(Seconds(2));
  EXPECT_EQ(ran, 2);
  EXPECT_LE(group.epochs_run(), 8u);
}

// Records every barrier and pins barriers to a fixed grid, mirroring how
// the ZoneCollector drives sampler ticks from the epoch barrier.
class RecordingHook : public ShardGroup::BarrierHook {
 public:
  RecordingHook(SimDuration period, int shards)
      : period_(period), next_(period), shards_(shards) {}

  SimTime NextAlignment() const override { return next_; }

  void OnBarrier(const ShardGroup::EpochRecord& record) override {
    ++barriers_;
    last_index_ = record.index;
    zones_always_present_ =
        zones_always_present_ && record.zones != nullptr;
    if (record.zones != nullptr) {
      for (int z = 0; z < shards_; ++z) {
        drained_seen_ += record.zones[z].drained;
      }
    }
    if (record.end == next_) {
      ++aligned_;
    }
    while (next_ <= record.end) {
      next_ += period_;
    }
  }

  uint64_t barriers() const { return barriers_; }
  uint64_t aligned() const { return aligned_; }
  uint64_t last_index() const { return last_index_; }
  uint64_t drained_seen() const { return drained_seen_; }
  bool zones_always_present() const { return zones_always_present_; }

 private:
  SimDuration period_;
  SimTime next_;
  int shards_;
  uint64_t barriers_ = 0;
  uint64_t aligned_ = 0;
  uint64_t last_index_ = 0;
  uint64_t drained_seen_ = 0;
  bool zones_always_present_ = true;
};

TEST(ShardGroupTest, BarrierHooksAlignEpochsToRequestedGrid) {
  ShardGroup::Options options;
  options.shards = 2;
  options.lookahead = Microseconds(50);
  ShardGroup group(options);
  RecordingHook hook(Microseconds(300), 2);
  group.AddBarrierHook(&hook);
  // Sparse events either side of the grid points: without the hook's
  // alignment the planner would jump the dead air past them entirely.
  int ran = 0;
  group.sim(0)->ScheduleAt(Microseconds(10), [&] { ++ran; });
  group.sim(1)->ScheduleAt(Milliseconds(2), [&] { ++ran; });
  group.RunUntil(Milliseconds(3));
  EXPECT_EQ(ran, 2);
  // Every 300 us grid point in (0, 3 ms] got a barrier landing exactly on
  // it, and the hook saw every barrier (index is contiguous with the total).
  EXPECT_EQ(hook.aligned(), 10u);
  EXPECT_GE(hook.barriers(), 10u);
  EXPECT_EQ(hook.last_index() + 1, group.epochs_run());
  EXPECT_TRUE(hook.zones_always_present());
  // Removal really detaches: further epochs don't reach the hook.
  group.RemoveBarrierHook(&hook);
  const uint64_t barriers_before = hook.barriers();
  group.RunFor(Milliseconds(1));
  EXPECT_EQ(hook.barriers(), barriers_before);
}

TEST(ShardGroupTest, PerZoneCountersSumToGroupTotals) {
  // Each shard showers its right neighbor with 40 posts inside the first
  // epoch, so the per-zone posted/drained counters and the inbox high
  // watermark all see real traffic — and the sums must match the
  // group-wide totals.
  ShardGroup::Options options;
  options.shards = 3;
  options.lookahead = Microseconds(50);
  ShardGroup group(options);
  RecordingHook hook(Milliseconds(1), 3);  // Also checks drained plumbing.
  group.AddBarrierHook(&hook);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 40; ++i) {
      group.sim(s)->ScheduleAt(Microseconds(i), [&group, s] {
        const int dst = (s + 1) % 3;
        group.Post(s, dst, group.sim(s)->now() + Microseconds(60), [] {});
      });
    }
  }
  group.RunUntil(Milliseconds(1));
  uint64_t posted = 0;
  uint64_t drained = 0;
  for (int z = 0; z < 3; ++z) {
    posted += group.zone_messages_posted(z);
    drained += group.zone_messages_drained(z);
    // Each shard's 40 posts share one epoch, so one link held all of them.
    EXPECT_EQ(group.zone_inbox_high_watermark(z), 40u) << "zone " << z;
  }
  EXPECT_EQ(posted, 120u);
  EXPECT_EQ(posted, group.messages_posted());
  EXPECT_EQ(drained, posted);
  EXPECT_EQ(hook.drained_seen(), posted);
}

}  // namespace
}  // namespace espk
