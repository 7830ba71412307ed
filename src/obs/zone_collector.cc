#include "src/obs/zone_collector.h"

#include <algorithm>

namespace espk {

namespace {

// Epoch slices retained for Perfetto export.
constexpr size_t kMaxEpochSlices = 8192;

uint64_t TotalBusyNs(const Executor& executor) {
  uint64_t total = 0;
  for (const Executor::WorkerStats& stats : executor.worker_stats()) {
    total += stats.busy_ns;
  }
  return total;
}

}  // namespace

ZoneCollector::ZoneCollector(ShardGroup* shards, PacketTracer* merged,
                             std::vector<PacketTracer*> zone_tracers)
    : shards_(shards),
      merged_(merged),
      zone_tracers_(std::move(zone_tracers)),
      cursors_(zone_tracers_.size(), 0),
      zones_(static_cast<size_t>(shards->shard_count())),
      created_tp_(std::chrono::steady_clock::now()) {
  shards_->AddBarrierHook(this);
}

ZoneCollector::~ZoneCollector() { shards_->RemoveBarrierHook(this); }

SimTime ZoneCollector::NextAlignment() const {
  SimTime align = Simulation::kNoPendingEvent;
  for (const Driven& driven : driven_) {
    align = std::min(align, driven.next_due);
  }
  return align;
}

void ZoneCollector::MergeTraces() {
  merge_scratch_.clear();
  for (size_t z = 0; z < zone_tracers_.size(); ++z) {
    const PacketTracer* tracer = zone_tracers_[z];
    const uint64_t total = tracer->recorded();
    uint64_t fresh = total - cursors_[z];
    if (fresh == 0) {
      continue;
    }
    const TraceRingView ring = tracer->events();
    if (fresh > ring.size()) {
      // Recorded since the last barrier but already evicted from the zone
      // ring — the mirror permanently misses them. Cannot happen while the
      // ring outlasts one epoch of recording.
      merge_lost_ += fresh - ring.size();
      fresh = ring.size();
    }
    const size_t begin = ring.size() - static_cast<size_t>(fresh);
    const uint64_t first_index = total - fresh;
    for (size_t i = begin; i < ring.size(); ++i) {
      merge_scratch_.push_back(TaggedEvent{
          ring[i], static_cast<int>(z), first_index + (i - begin)});
    }
    cursors_[z] = total;
  }
  if (merge_scratch_.empty()) {
    return;
  }
  // (recorded, zone, stream position) is a strict total order — positions
  // are unique within a zone — so the merge is deterministic regardless of
  // which thread ran which zone.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const TaggedEvent& a, const TaggedEvent& b) {
              if (a.event.recorded != b.event.recorded) {
                return a.event.recorded < b.event.recorded;
              }
              if (a.zone != b.zone) return a.zone < b.zone;
              return a.index < b.index;
            });
  for (const TaggedEvent& tagged : merge_scratch_) {
    merged_->Ingest(tagged.event);
  }
  events_merged_ += merge_scratch_.size();
}

void ZoneCollector::OnBarrier(const ShardGroup::EpochRecord& record) {
  ++barriers_seen_;
  MergeTraces();
  const int n = shards_->shard_count();
  double max_wait_ms = 0.0;
  for (int z = 0; z < n; ++z) {
    ZoneSnapshot& snap = zones_[static_cast<size_t>(z)];
    const ShardGroup::ZoneEpochStats& stats =
        record.zones[static_cast<size_t>(z)];
    ++snap.epochs;
    snap.run_wall_ns += stats.run_wall_ns;
    snap.barrier_wait_ns += stats.barrier_wait_ns;
    snap.drained = shards_->zone_messages_drained(z);
    snap.messages_posted = shards_->zone_messages_posted(z);
    snap.inbox_high_watermark = shards_->zone_inbox_high_watermark(z);
    snap.events_processed = shards_->sim(z)->events_processed();
    const PacketTracer* tracer = zone_tracers_[static_cast<size_t>(z)];
    snap.trace_recorded = tracer->recorded();
    snap.trace_dropped = tracer->dropped();
    snap.trace_ring = tracer->events().size();
    if (snap.run_hist != nullptr) {
      snap.run_hist->Observe(static_cast<double>(stats.run_wall_ns) / 1000.0);
    }
    if (snap.wait_hist != nullptr) {
      snap.wait_hist->Observe(
          static_cast<double>(stats.barrier_wait_ns) / 1000.0);
    }
    max_wait_ms =
        std::max(max_wait_ms, static_cast<double>(stats.barrier_wait_ns) / 1e6);
    slices_.push_back(EpochSlice{record.start, record.end, z,
                                 stats.run_wall_ns, stats.barrier_wait_ns,
                                 stats.drained});
  }
  last_barrier_wait_ms_ = max_wait_ms;
  executor_busy_ns_ = TotalBusyNs(shards_->executor());
  wall_elapsed_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - created_tp_)
          .count());
  while (slices_.size() > kMaxEpochSlices) {
    slices_.pop_front();
  }
  // Driven ticks fire only when the barrier lands exactly on the due
  // instant (NextAlignment guarantees one does); the grid never moves, so
  // a callback that skips ticks (a stopped sampler) stays aligned.
  for (Driven& driven : driven_) {
    while (driven.next_due <= record.end) {
      if (driven.next_due == record.end) {
        driven.fire();
      }
      driven.next_due += driven.period;
    }
  }
}

void ZoneCollector::Drive(SimDuration period, std::function<void()> fire) {
  Driven driven;
  driven.period = period;
  driven.next_due = shards_->now() + period;
  driven.fire = std::move(fire);
  driven_.push_back(std::move(driven));
}

void ZoneCollector::RegisterZoneStation(int zone, MetricsRegistry* registry) {
  ZoneSnapshot* snap = &zones_[static_cast<size_t>(zone)];
  registry->GetGauge(
      "runtime.epochs",
      [snap] { return static_cast<double>(snap->epochs); },
      "Epochs this zone has run");
  snap->run_hist = registry->GetHistogram(
      "runtime.epoch_run_us", 0.0, 10000.0, 50,
      "Wall-clock run-phase duration per epoch (us)");
  snap->wait_hist = registry->GetHistogram(
      "runtime.barrier_wait_us", 0.0, 10000.0, 50,
      "Wall-clock wait between this zone finishing and the barrier (us)");
  HistogramMetric* run_hist = snap->run_hist;
  registry->GetGauge(
      "runtime.epoch_run_us.p50",
      [run_hist] {
        return run_hist->histogram().count() > 0
                   ? run_hist->histogram().Percentile(0.5)
                   : 0.0;
      },
      "Median wall-clock run-phase duration (us)");
  registry->GetGauge(
      "runtime.epoch_run_us.p99",
      [run_hist] {
        return run_hist->histogram().count() > 0
                   ? run_hist->histogram().Percentile(0.99)
                   : 0.0;
      },
      "p99 wall-clock run-phase duration (us)");
  HistogramMetric* wait_hist = snap->wait_hist;
  registry->GetGauge(
      "runtime.barrier_wait_us.p99",
      [wait_hist] {
        return wait_hist->histogram().count() > 0
                   ? wait_hist->histogram().Percentile(0.99)
                   : 0.0;
      },
      "p99 wall-clock barrier wait (us)");
  registry->GetGauge(
      "runtime.drained_messages",
      [snap] { return static_cast<double>(snap->drained); },
      "Cross-shard messages drained into this zone");
  registry->GetGauge(
      "runtime.messages_posted",
      [snap] { return static_cast<double>(snap->messages_posted); },
      "Cross-shard messages posted to this zone");
  registry->GetGauge(
      "runtime.inbox_high_watermark",
      [snap] { return static_cast<double>(snap->inbox_high_watermark); },
      "Peak single-link inbox size at post time");
  registry->GetGauge(
      "runtime.events_processed",
      [snap] { return static_cast<double>(snap->events_processed); },
      "Events this zone's loop has processed");
  registry->GetGauge(
      "runtime.trace_recorded",
      [snap] { return static_cast<double>(snap->trace_recorded); },
      "Trace events recorded on this zone's tracer");
  registry->GetGauge(
      "runtime.trace_dropped",
      [snap] { return static_cast<double>(snap->trace_dropped); },
      "Trace events evicted from this zone's ring (overrun)");
  registry->GetGauge(
      "runtime.trace_ring",
      [snap] { return static_cast<double>(snap->trace_ring); },
      "Trace events retained on this zone's ring");
  if (zone != 0) {
    return;
  }
  // Group-wide telemetry lives on zone 0's station.
  registry->GetGauge(
      "runtime.executor_workers",
      [this] {
        return static_cast<double>(shards_->executor().thread_count());
      },
      "Executor participants including the caller");
  registry->GetGauge(
      "runtime.executor_busy_ms",
      [this] { return static_cast<double>(executor_busy_ns_) / 1e6; },
      "Total wall-clock time participants spent running slices (ms)");
  registry->GetGauge(
      "runtime.executor_utilization",
      [this] {
        const double denom =
            static_cast<double>(wall_elapsed_ns_) *
            static_cast<double>(shards_->executor().thread_count());
        return denom > 0.0 ? static_cast<double>(executor_busy_ns_) / denom
                           : 0.0;
      },
      "Busy fraction of the executor since the collector started");
  registry->GetGauge(
      "runtime.merged_trace_events",
      [this] { return static_cast<double>(events_merged_); },
      "Zone trace events merged into the mirror tracer");
  registry->GetGauge(
      "runtime.merge_lost",
      [this] { return static_cast<double>(merge_lost_); },
      "Zone trace events evicted before a barrier could merge them");
}

}  // namespace espk
