// EthernetSpeakerSystem: assembles the full paper system on one simulation —
// a kernel with VAD pairs, player applications, rebroadcasters, a simulated
// Ethernet segment, and any number of Ethernet Speakers — and provides the
// measurements the experiments need (inter-speaker skew, dropouts, wire
// load). This is the top of the public API: examples, tests, and benches
// all drive the system through it.
#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/audio/generator.h"
#include "src/kernel/kernel.h"
#include "src/kernel/vad.h"
#include "src/lan/segment.h"
#include "src/mgmt/directory.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/spans/plane.h"
#include "src/obs/trace.h"
#include "src/obs/zone_collector.h"
#include "src/rebroadcast/player_app.h"
#include "src/rebroadcast/rebroadcaster.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"
#include "src/speaker/speaker.h"
#include "src/speaker/speaker_zone.h"

namespace espk {

// Zones (src/sim/shard.h): the system splits its speakers into `zones`
// SpeakerZones, each living on its own shard with its own event queue and
// packet tracer; producers, the kernel, and the segment stay on shard 0.
// Every speaker receives through its zone — zones = 1 is a one-zone group
// whose speakers all share shard 0 with the producers.
// Drive the system through its RunUntil/RunFor, which run the epoch loop:
// the observability planes tick only at epoch barriers. Results are
// deterministic and bit-identical whether zones = 1 or N and whether
// threads = 1 or many — tests/sharded_determinism_test.cc pins it.
// Speaker i lands in zone i % zones. The epoch lookahead is the LAN's
// base_delay: the minimum delivery latency, which is the largest value
// that is still conservative.
struct ShardedConfig {
  int zones = 1;
  int threads = 1;  // Executor width incl. the caller; clamped to zones.
};

struct SystemOptions {
  SegmentConfig lan;
  ShardedConfig sharded;
};

// One audio channel: a VAD pair on the producer host, the rebroadcaster
// process reading its master side, and the multicast group it feeds.
struct Channel {
  std::string name;
  uint32_t stream_id = 0;
  GroupId group = 0;
  std::string slave_path;   // Device the player application opens.
  VadHandles vad{};
  std::unique_ptr<SimNic> producer_nic;
  std::unique_ptr<Rebroadcaster> rebroadcaster;
};

// One station of the distributed telemetry plane: a named participant
// (every speaker "es-<i>", every rebroadcaster "rb-<stream_id>") owning the
// registry its metrics live in — the only registry they live in. The fleet
// collector scrapes these.
struct Station {
  std::string name;
  std::unique_ptr<MetricsRegistry> registry;
};

class EthernetSpeakerSystem {
 public:
  explicit EthernetSpeakerSystem(const SystemOptions& options = {});
  ~EthernetSpeakerSystem();

  EthernetSpeakerSystem(const EthernetSpeakerSystem&) = delete;
  EthernetSpeakerSystem& operator=(const EthernetSpeakerSystem&) = delete;

  // Shard 0's simulation — the producer-side clock, and with zones = 1 the
  // only one. Schedule producer-side events on it; advance the system with
  // RunUntil/RunFor below.
  Simulation* sim() { return &sim_; }
  SimKernel* kernel() { return &kernel_; }
  EthernetSegment* lan() { return &lan_; }

  // The shard group driving all zones (a 1-shard group when zones = 1).
  ShardGroup* shards() { return &shards_; }
  int zones() const { return shards_.shard_count(); }
  // The zone a speaker landed in, and that zone's event loop / tracer.
  // Zone 0 shares shard 0 with the producers.
  int ZoneOf(size_t speaker_index) const;
  Simulation* zone_sim(int zone) { return shards_.sim(zone); }
  // Every zone records into its own tracer, live; the producers and the
  // segment record into zone 0's.
  PacketTracer* zone_tracer(int zone) {
    return zone_tracers_[static_cast<size_t>(zone)].get();
  }

  // Run the whole system — every zone — to/for the given virtual time, in
  // epochs. These are the way to advance the system.
  void RunUntil(SimTime t) { shards_.RunUntil(t); }
  void RunFor(SimDuration d) { shards_.RunFor(d); }
  SimTime now() const { return shards_.now(); }

  // The console's registry: system-wide telemetry only (kernel, LAN,
  // tracer, alerts, spans, scrape). Speaker and channel metrics live on
  // their stations alone (see stations()). Export to a MIB with
  // ExportMetricsToMib (src/mgmt/metrics_mib.h) or dump with
  // metrics()->TextExposition().
  MetricsRegistry* metrics() { return &metrics_; }
  // The mirror the ZoneCollector merges every zone tracer into at epoch
  // barriers. It fills only once a plane (or EnableZoneTelemetry) has built
  // the collector; read zone_tracer(z) for a run without planes.
  PacketTracer* tracer() { return &tracer_; }

  // Per-station registries, in creation order. A speaker added as index i
  // is station "es-<i>"; a channel with stream id s is station "rb-<s>".
  const std::vector<std::unique_ptr<Station>>& stations() const {
    return stations_;
  }
  // Null if no station by that name exists.
  Station* FindStation(const std::string& name);

  // Thresholds for the default SLO rule set EnableHealthMonitoring
  // installs. Every rule aggregates over a 1 s window, fires after 200 ms
  // in breach and clears after 300 ms clean; the rates are per second. The
  // p99 sync drift (15 ms) and runtime thresholds are fixed.
  struct HealthRuleDefaults {
    double queue_drop_rate_per_sec = 5.0;     // lan.queue_drop_rate
    double deadline_miss_rate_per_sec = 5.0;  // speaker.<i>.deadline_miss_rate
    double jitter_low_watermark_bytes = 1.0;  // speaker.<i>.jitter_low_watermark
    double silence_ms_per_sec = 50.0;         // speaker.<i>.silence_rate
    // Sharded-runtime self-telemetry rule (runtime.barrier_stall),
    // installed only with more than one zone (barrier waits only exist
    // there). It watches *wall-clock* barrier waits, which vary run to run
    // — set runtime_rules = false when comparing alert logs across runs
    // (the bit-identity tests do).
    bool runtime_rules = true;
  };

  // Builds the health layer (sampler + SLO alert engine + flight recorder)
  // over this system's metrics and the tracer mirror, installs the default
  // rule set for the LAN and every speaker added so far, and starts
  // sampling: the ZoneCollector ticks the sampler at the epoch barrier on
  // every sampler period. Speaker i's signals are read from station
  // "es-<i>" and sampled as series "speaker.<i>.<signal>". Call once, after
  // the system is assembled. Null until then.
  HealthMonitor* EnableHealthMonitoring(const HealthOptions& options,
                                        const HealthRuleDefaults& rules);
  HealthMonitor* EnableHealthMonitoring(const HealthOptions& options = {});
  HealthMonitor* health() { return health_.get(); }

  // Builds the causal span plane: attaches the span exporter to the tracer
  // mirror, creates a span buffer per station added so far (stations added
  // later are attached automatically), and routes each channel's producer-
  // side spans to its "rb-<sid>" station; the ZoneCollector flushes the
  // plane at the epoch barrier every 250 ms of sim time. Every zone tracer
  // starts recording the extra span stages (wire-tx, decode-start) and
  // exemplar-carrying lateness observations from this call on. Call once;
  // idempotent.
  SpanPlane* EnableSpanTracing(const SpanPlaneOptions& options = {});
  SpanPlane* spans() { return spans_.get(); }

  // Creates the "zone-<z>" runtime-telemetry stations, one per zone, and
  // the ZoneCollector that feeds them (idempotent). The collector merges
  // zone tracers into the mirror at every epoch barrier; the planes build
  // it too, but only this call creates the stations.
  ZoneCollector* EnableZoneTelemetry();
  // Null until a plane or EnableZoneTelemetry() builds it.
  ZoneCollector* zone_collector() { return zone_collector_.get(); }

  // Allocates a fresh simulated process id.
  Pid NewPid() { return next_pid_++; }

  // Creates a channel: registers the stream in the subscription directory
  // (which allocates its multicast group), registers /dev/vadsN +
  // /dev/vadmN, attaches a NIC for the producer, and starts a
  // rebroadcaster. Overrides of stream_id / group / channel_name in
  // `rb_options` are ignored (assigned here). Channel names must be unique.
  Result<Channel*> CreateChannel(const std::string& name,
                                 RebroadcasterOptions rb_options = {},
                                 VadOptions vad_options = {});

  // Starts an "unmodified audio application" playing into the channel's
  // slave device. The returned player is owned by the system.
  Result<PlayerApp*> StartPlayer(Channel* channel,
                                 std::unique_ptr<SignalGenerator> generator,
                                 PlayerAppOptions options);

  // Adds a speaker with its own NIC, unsubscribed. Owned by the system.
  Result<EthernetSpeaker*> AddSpeaker(SpeakerOptions options);
  // Adds a speaker subscribed to `group`, which must belong to a stream
  // registered in the directory (i.e. a channel created before the
  // speaker).
  Result<EthernetSpeaker*> AddSpeaker(SpeakerOptions options, GroupId group);

  // ------------------------------------------------- subscription plane --
  // The named-stream registry: every channel is registered here at
  // creation; zone routing policies and the who-hears-what view live here.
  SubscriptionDirectory* directory() { return &directory_; }

  // Subscribes/unsubscribes speaker `index` to the named stream, enforcing
  // the stream's zone routing policy against the speaker's zone. Safe to
  // call between runs on a sharded system (membership marshals through the
  // segment's join-latency machinery).
  Status SubscribeSpeaker(size_t speaker_index, const std::string& stream);
  Status UnsubscribeSpeaker(size_t speaker_index, const std::string& stream);

  // Pushes the live per-speaker subscription state (groups + per-stream
  // counters) into the directory so RenderWhoHearsWhat reflects this
  // instant. Call between runs, not mid-epoch.
  void RefreshDirectory();

  const std::vector<std::unique_ptr<Channel>>& channels() const {
    return channels_;
  }
  const std::vector<std::unique_ptr<EthernetSpeaker>>& speakers() const {
    return speakers_;
  }

  // The NIC a speaker was created with (management agents and catalog
  // browsers share it with the speaker: its zone hands them every datagram
  // the speaker has no session for). On a multi-zone system only zone-0
  // speakers may host such components — elsewhere their handler would run
  // on the zone's shard while they transmit through shard 0's segment.
  // Null for unknown speakers.
  SimNic* NicOf(const EthernetSpeaker* speaker);

  // ------------------------------------------------------- measurements --
  struct SyncReport {
    double max_skew_seconds = 0.0;       // Worst pairwise misalignment.
    double min_correlation = 1.0;        // Weakest pairwise correlation.
    int speaker_pairs = 0;
  };
  // Cross-correlates speakers' rendered output over [from, from+window] —
  // the measured inter-speaker skew of §3.2. A pair is compared only on a
  // stream BOTH are subscribed to (the first common ready group in the
  // earlier speaker's subscription order, matching sample rates): aligning
  // two speakers playing different channels would report meaningless skew.
  // With `all_pairs` false, each speaker is compared against the first
  // ready one only (O(n) — for large fleets; pairwise skew is then bounded
  // by twice the reported maximum).
  SyncReport MeasureSync(SimTime from, SimDuration window,
                         SimDuration max_skew_search = Milliseconds(250),
                         bool all_pairs = true);

 private:
  void RegisterLanMetrics();
  void AttachChannelSpans(size_t index);
  void AttachSpeakerSpans(size_t index);
  // Builds the ZoneCollector on first use.
  ZoneCollector* BuildZoneCollector();

  // Creates the station and returns its registry (owned by stations_).
  MetricsRegistry* AddStation(const std::string& name);

  // The shard group owns every zone's Simulation; sim_ aliases shard 0's so
  // all producer-side members (and their &sim_ initializers) are untouched
  // by sharding. Declared first: everything below lives on some shard.
  ShardGroup shards_;
  Simulation& sim_;
  // Declared before the components whose constructors and gauge callbacks
  // use them, and therefore destroyed after every instrumented component.
  MetricsRegistry metrics_;
  PacketTracer tracer_;
  SimKernel kernel_;
  EthernetSegment lan_;
  Pid next_pid_ = 1000;
  uint32_t next_stream_id_ = 1;
  // Allocates channel groups and holds the who-hears-what view. Declared
  // before the component vectors; it holds no pointers into them (bindings
  // are pushed copies).
  SubscriptionDirectory directory_;
  // Station registries own per-component metrics that components point
  // into; declared before the component vectors so every instrumented
  // component unwinds first.
  std::vector<std::unique_ptr<Station>> stations_;
  // The station registries of channels_[i] ("rb-<sid>") and of speaker i
  // ("es-<i>"), so the planes reach them without a scan of stations_.
  std::vector<MetricsRegistry*> channel_registries_;
  std::vector<MetricsRegistry*> speaker_registries_;
  // Per-zone tracers (every zone, including zone 0, records into its own;
  // tracer_ is the barrier-merged mirror), and the per-zone batch sinks
  // every speaker receives through. Declared before the speakers: a
  // speaker's options_.tracer points at its zone tracer, and zones hold
  // borrowed speaker/NIC pointers — nothing here touches them at
  // destruction, but keep the conservative order.
  std::vector<std::unique_ptr<PacketTracer>> zone_tracers_;
  std::vector<std::unique_ptr<SpeakerZone>> speaker_zones_;
  std::vector<int> speaker_zone_index_;  // Speaker index -> zone.
  // Barrier hook merging zone tracers into the mirror and snapshotting
  // runtime telemetry. Declared after shards_ / zone_tracers_ (it
  // unregisters from shards_ on destruction) and before spans_ / health_
  // (their lambdas read it).
  std::unique_ptr<ZoneCollector> zone_collector_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<PlayerApp>> players_;
  std::vector<std::unique_ptr<SimNic>> speaker_nics_;
  std::vector<std::unique_ptr<EthernetSpeaker>> speakers_;
  // The span plane detaches itself from tracer_ on destruction and its
  // recorder gauges live on station registries above; declared after both
  // so it unwinds before neither is needed again.
  std::unique_ptr<SpanPlane> spans_;
  // Declared last: its alert gauges read engine state, and its sampler
  // gauges read components above — it must unwind first.
  std::unique_ptr<HealthMonitor> health_;
};

}  // namespace espk

#endif  // SRC_CORE_SYSTEM_H_
