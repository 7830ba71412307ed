// Per-zone observability collector. Every EthernetSpeakerSystem zone — on
// every zone count, one included — records into its own PacketTracer and
// advances on its own shard, so no observability plane can read one tracer
// live. The ZoneCollector is the bridge: it registers as a
// ShardGroup::BarrierHook and, at every epoch barrier (a single-threaded
// safe point with all shards parked at the same instant), does three
// things:
//
//  1. Merges each zone tracer's fresh events into the system's mirror
//     tracer in (recorded, zone, per-zone ring position) order — a strict
//     total order (positions are unique per zone), fully determined by
//     simulated time, so the merged stream is bit-identical run to run and
//     independent of executor width. The span exporter and flight recorder
//     observe only the mirror.
//  2. Snapshots runtime self-telemetry per zone — epoch run / barrier-wait
//     wall time (histograms), drained message counts, the inbox
//     high-watermark, events processed, timer-wheel cascades, and
//     per-zone tracer ring health — for the per-zone station registries
//     ("zone-<z>") that EnableZoneTelemetry() creates and the federation
//     plane scrapes like any speaker.
//  3. Fires driven periodic callbacks (the health sampler's tick, the span
//     plane's flush) at barriers aligned exactly to their period, via
//     NextAlignment(): the epoch planner clamps epochs so a barrier lands
//     on every tick instant. A tick therefore reads the instant fully
//     settled — after every event at that time — on every zone count.
//
// Why the merged stream does not depend on the zone count: within one
// zone, ring order is the recording order of that zone's events (same code
// runs at the same sim times). Across zones, the only events a one-zone run
// may interleave differently are those recorded at the exact same sim
// instant on different shards — and every consumer fed by the mirror is
// insensitive to that interleaving (the exporter keys spans by (trace,
// station), the sampler reads state only at tick barriers after all
// same-instant events ran, and the flight recorder dumps its trace section
// canonically sorted).
#ifndef SRC_OBS_ZONE_COLLECTOR_H_
#define SRC_OBS_ZONE_COLLECTOR_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/base/time_types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/shard.h"

namespace espk {

class ZoneCollector : public ShardGroup::BarrierHook {
 public:
  // One retained epoch on one zone, exported as a Perfetto slice.
  struct EpochSlice {
    SimTime start = 0;
    SimTime end = 0;
    int zone = 0;
    uint64_t run_ns = 0;
    uint64_t wait_ns = 0;
    uint64_t drained = 0;
  };

  // `merged` is the mirror tracer every single-point consumer observes;
  // `zone_tracers[z]` must be the tracer whose events zone z records. All
  // must outlive the collector, which registers itself as a barrier hook on
  // `shards` (and removes itself on destruction).
  ZoneCollector(ShardGroup* shards, PacketTracer* merged,
                std::vector<PacketTracer*> zone_tracers);
  ~ZoneCollector() override;

  ZoneCollector(const ZoneCollector&) = delete;
  ZoneCollector& operator=(const ZoneCollector&) = delete;

  // ShardGroup::BarrierHook.
  SimTime NextAlignment() const override;
  void OnBarrier(const ShardGroup::EpochRecord& record) override;

  // Registers the runtime metric catalog for `zone` on its station registry:
  // runtime.epochs, runtime.epoch_run_us / runtime.barrier_wait_us
  // (histograms plus .p50/.p99 gauges), runtime.drained_messages,
  // runtime.messages_posted, runtime.inbox_high_watermark,
  // runtime.events_processed, runtime.timer_cascades,
  // runtime.trace_recorded / trace_dropped / trace_ring. Zone 0
  // additionally carries the group-wide gauges:
  // runtime.executor_workers / executor_busy_ms / executor_utilization and
  // runtime.merged_trace_events / merge_lost. All gauges read barrier-time
  // snapshots, so scraping them mid-epoch from another shard is safe.
  void RegisterZoneStation(int zone, MetricsRegistry* registry);

  // Registers a periodic callback driven at barriers: the first firing is
  // one period from the group clock's now, then every period, each at a
  // barrier landing exactly on the tick instant.
  void Drive(SimDuration period, std::function<void()> fire);

  // Reader for the default runtime.barrier_stall SLO rule: wall clock, so it
  // varies run to run.
  double last_barrier_wait_ms() const { return last_barrier_wait_ms_; }

  uint64_t events_merged() const { return events_merged_; }
  // Events that fell off a zone ring between barriers and never reached the
  // mirror. Always 0 when zone rings are sized for at least one epoch of
  // recording (with 50 us epochs, any sane capacity).
  uint64_t merge_lost() const { return merge_lost_; }
  uint64_t barriers_seen() const { return barriers_seen_; }
  // The newest 8192 slices (zones x epochs entries), oldest first.
  const std::deque<EpochSlice>& epoch_slices() const { return slices_; }

 private:
  struct ZoneSnapshot {
    uint64_t epochs = 0;
    uint64_t run_wall_ns = 0;
    uint64_t barrier_wait_ns = 0;
    uint64_t drained = 0;
    uint64_t messages_posted = 0;
    uint64_t inbox_high_watermark = 0;
    uint64_t events_processed = 0;
    uint64_t timer_cascades = 0;
    uint64_t trace_recorded = 0;
    uint64_t trace_dropped = 0;
    uint64_t trace_ring = 0;
    HistogramMetric* run_hist = nullptr;
    HistogramMetric* wait_hist = nullptr;
  };
  struct Driven {
    SimDuration period = 0;
    SimTime next_due = 0;
    std::function<void()> fire;
  };
  struct TaggedEvent {
    TraceEvent event;
    int zone = 0;
    uint64_t index = 0;  // Position in the zone's recording stream.
  };

  void MergeTraces();

  ShardGroup* shards_;
  PacketTracer* merged_;
  std::vector<PacketTracer*> zone_tracers_;
  std::vector<uint64_t> cursors_;  // recorded() already merged, per zone.
  std::vector<ZoneSnapshot> zones_;
  std::vector<Driven> driven_;
  std::deque<EpochSlice> slices_;
  std::vector<TaggedEvent> merge_scratch_;
  uint64_t events_merged_ = 0;
  uint64_t merge_lost_ = 0;
  uint64_t barriers_seen_ = 0;
  double last_barrier_wait_ms_ = 0.0;
  uint64_t executor_busy_ns_ = 0;
  uint64_t wall_elapsed_ns_ = 0;
  std::chrono::steady_clock::time_point created_tp_;
};

}  // namespace espk

#endif  // SRC_OBS_ZONE_COLLECTOR_H_
