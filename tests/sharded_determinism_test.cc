// The sharded runtime's headline guarantee, end to end: the SAME fleet run
// in one zone (one event loop) and in four zones (SPSC handoff, epoch
// barriers) — with one executor thread or several — produces bit-identical
// results. "Results" is taken broadly: every speaker's stats struct, its
// rendered PCM, the LAN's wire accounting, and the merged per-packet trace
// streams. Standalone speakers, each a batch of one, are the reference for
// zone batching itself.
#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/system.h"

namespace espk {
namespace {

struct FleetResult {
  std::vector<SpeakerStats> stats;
  std::vector<std::vector<float>> rendered;
  SegmentStats lan;
  uint64_t messages_posted = 0;
  // (at, stream, seq, stage, node): a total order over trace events that is
  // independent of which tracer ring (zone) recorded them and of ring
  // eviction order.
  std::vector<std::tuple<SimTime, uint32_t, uint32_t, uint8_t, uint32_t>>
      trace_events;
};

bool operator==(const SpeakerStats& a, const SpeakerStats& b) {
  return a.packets_received == b.packets_received &&
         a.control_packets == b.control_packets &&
         a.data_packets == b.data_packets && a.bad_packets == b.bad_packets &&
         a.auth_rejected == b.auth_rejected &&
         a.waiting_drops == b.waiting_drops && a.late_drops == b.late_drops &&
         a.overflow_drops == b.overflow_drops &&
         a.duplicate_drops == b.duplicate_drops &&
         a.chunks_played == b.chunks_played &&
         a.decode_errors == b.decode_errors &&
         a.total_lateness_ns == b.total_lateness_ns &&
         a.silence_ns == b.silence_ns;
}

FleetResult CollectResult(EthernetSpeakerSystem& system) {
  FleetResult result;
  for (const auto& speaker : system.speakers()) {
    result.stats.push_back(speaker->stats());
    // A speaker whose every subscription was dropped has no output to
    // render; an empty window still participates in the comparison.
    result.rendered.push_back(
        speaker->ready() ? speaker->output()->Render(Seconds(1), Seconds(2))
                         : std::vector<float>());
  }
  result.lan = system.lan()->stats();
  result.messages_posted = system.shards()->messages_posted();
  for (int z = 0; z < system.zones(); ++z) {
    const PacketTracer* tracer = system.zone_tracer(z);
    EXPECT_EQ(tracer->dropped(), 0u) << "ring evictions would break the "
                                        "trace comparison; raise capacity";
    for (const TraceEvent& e : tracer->events()) {
      result.trace_events.push_back({e.at, e.stream_id, e.seq,
                                     static_cast<uint8_t>(e.stage), e.node});
    }
  }
  std::sort(result.trace_events.begin(), result.trace_events.end());
  return result;
}

FleetResult RunFleet(int zones, int threads, SimDuration jitter = 0) {
  SystemOptions options;
  options.sharded.zones = zones;
  options.sharded.threads = threads;
  options.lan.jitter = jitter;
  EthernetSpeakerSystem system(options);
  Channel* channel = *system.CreateChannel("music");
  constexpr int kSpeakers = 5;
  for (int i = 0; i < kSpeakers; ++i) {
    SpeakerOptions speaker_options;
    speaker_options.name = "es" + std::to_string(i);
    speaker_options.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(speaker_options, channel->group);
  }
  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  EXPECT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(11),
                               player_options)
                  .ok());
  system.RunUntil(Seconds(4));

  for (const auto& speaker : system.speakers()) {
    EXPECT_TRUE(speaker->ready()) << speaker->name() << " zones=" << zones;
  }
  return CollectResult(system);
}

// Same fleet, but with subscription churn between runs: two speakers pick
// up a second stream mid-run and one drops its only one. join_latency >=
// lookahead is the documented contract that makes membership changes land
// on the same virtual instant whether the requesting speaker shares the
// segment's shard or posts across the epoch barrier.
FleetResult RunChurnFleet(int zones, int threads) {
  SystemOptions options;
  options.sharded.zones = zones;
  options.sharded.threads = threads;
  options.lan.join_latency = Milliseconds(1);
  EthernetSpeakerSystem system(options);
  Channel* music = *system.CreateChannel("music");
  Channel* voice = *system.CreateChannel("voice");
  constexpr int kSpeakers = 5;
  for (int i = 0; i < kSpeakers; ++i) {
    SpeakerOptions speaker_options;
    speaker_options.name = "es" + std::to_string(i);
    speaker_options.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(speaker_options, music->group);
  }
  PlayerAppOptions music_options;
  music_options.config = AudioConfig::CdQuality();
  EXPECT_TRUE(system
                  .StartPlayer(music, std::make_unique<MusicLikeGenerator>(11),
                               music_options)
                  .ok());
  PlayerAppOptions voice_options;
  voice_options.config = AudioConfig::PhoneQuality();
  voice_options.chunk_frames = 800;
  EXPECT_TRUE(system
                  .StartPlayer(voice,
                               std::make_unique<SpeechLikeGenerator>(12),
                               voice_options)
                  .ok());
  system.RunUntil(Seconds(2));
  EXPECT_TRUE(system.SubscribeSpeaker(1, "voice").ok());
  EXPECT_TRUE(system.SubscribeSpeaker(3, "voice").ok());
  EXPECT_TRUE(system.UnsubscribeSpeaker(2, "music").ok());
  system.RunUntil(Seconds(4));
  return CollectResult(system);
}

void ExpectIdentical(const FleetResult& a, const FleetResult& b) {
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_TRUE(a.stats[i] == b.stats[i]) << "speaker " << i << " diverged";
    EXPECT_EQ(a.rendered[i], b.rendered[i])
        << "speaker " << i << " rendered different PCM";
  }
  EXPECT_EQ(a.lan.packets_offered, b.lan.packets_offered);
  EXPECT_EQ(a.lan.packets_sent, b.lan.packets_sent);
  EXPECT_EQ(a.lan.deliveries, b.lan.deliveries);
  EXPECT_EQ(a.lan.deliveries_lost, b.lan.deliveries_lost);
  EXPECT_EQ(a.lan.bytes_on_wire, b.lan.bytes_on_wire);
  EXPECT_EQ(a.trace_events, b.trace_events);
}

TEST(ShardedDeterminismTest, OneShardAndFourShardsAreBitIdentical) {
  FleetResult classic = RunFleet(/*zones=*/1, /*threads=*/1);
  FleetResult sharded = RunFleet(/*zones=*/4, /*threads=*/1);
  ASSERT_GT(classic.stats[0].chunks_played, 25u);
  EXPECT_EQ(classic.messages_posted, 0u);
  EXPECT_GT(sharded.messages_posted, 0u);  // The zone path actually ran.
  ExpectIdentical(classic, sharded);
}

TEST(ShardedDeterminismTest, ExecutorWidthDoesNotChangeResults) {
  FleetResult inline_run = RunFleet(/*zones=*/4, /*threads=*/1);
  FleetResult threaded_run = RunFleet(/*zones=*/4, /*threads=*/4);
  ExpectIdentical(inline_run, threaded_run);
}

TEST(ShardedDeterminismTest, JitteredDeliveriesStayBitIdentical) {
  // Jitter makes per-member arrivals diverge inside a zone batch, forcing
  // the deferred-entry path in SpeakerZone; the PRNG draws happen on the
  // home shard in NIC creation order either way, so results must still
  // match exactly.
  const SimDuration jitter = Microseconds(200);
  FleetResult classic = RunFleet(1, 1, jitter);
  FleetResult sharded = RunFleet(4, 2, jitter);
  ASSERT_GT(classic.stats[0].chunks_played, 25u);
  ExpectIdentical(classic, sharded);
}

TEST(ShardedDeterminismTest, SubscriptionChurnStaysBitIdentical) {
  FleetResult classic = RunChurnFleet(/*zones=*/1, /*threads=*/1);
  FleetResult sharded = RunChurnFleet(/*zones=*/4, /*threads=*/2);
  // The churn actually happened: es-1 heard both streams, es-2 went silent
  // after 2 s but kept what it had played.
  ASSERT_GT(classic.stats[1].chunks_played, classic.stats[0].chunks_played);
  ASSERT_GT(classic.stats[2].chunks_played, 0u);
  ASSERT_LT(classic.stats[2].chunks_played, classic.stats[0].chunks_played);
  ExpectIdentical(classic, sharded);
}

// The observability planes run on the ZoneCollector on every zone count:
// either plane builds it, the sampler ticks at aligned barriers under
// RunUntil, and the planes add no "zone-<z>" stations — only an explicit
// EnableZoneTelemetry() does.
TEST(ShardedDeterminismTest, ShardedSystemEnablesSingleLoopPlanes) {
  for (int zones : {1, 2}) {
    SCOPED_TRACE("zones=" + std::to_string(zones));
    SystemOptions options;
    options.sharded.zones = zones;
    {
      EthernetSpeakerSystem spans_only(options);
      ASSERT_NE(spans_only.EnableSpanTracing(), nullptr);
      EXPECT_NE(spans_only.zone_collector(), nullptr);
    }
    {
      EthernetSpeakerSystem health_only(options);
      ASSERT_NE(health_only.EnableHealthMonitoring(), nullptr);
      EXPECT_NE(health_only.zone_collector(), nullptr);
    }

    EthernetSpeakerSystem system(options);
    EXPECT_EQ(system.zone_collector(), nullptr);  // Built lazily by Enable*.
    Channel* channel = *system.CreateChannel("music");
    for (int i = 0; i < 2; ++i) {
      (void)*system.AddSpeaker(SpeakerOptions{}, channel->group);
    }
    SpanPlane* spans = system.EnableSpanTracing();
    HealthMonitor* health = system.EnableHealthMonitoring();
    ASSERT_NE(spans, nullptr);
    ASSERT_NE(health, nullptr);
    EXPECT_TRUE(health->running());
    ZoneCollector* collector = system.zone_collector();
    ASSERT_NE(collector, nullptr);
    EXPECT_EQ(system.EnableSpanTracing(), spans);        // Idempotent.
    EXPECT_EQ(system.EnableHealthMonitoring(), health);  // Idempotent.

    PlayerAppOptions player_options;
    player_options.config = AudioConfig::CdQuality();
    EXPECT_TRUE(system
                    .StartPlayer(channel,
                                 std::make_unique<MusicLikeGenerator>(11),
                                 player_options)
                    .ok());
    system.RunUntil(Seconds(1));

    EXPECT_GT(collector->barriers_seen(), 0u);
    EXPECT_GT(collector->events_merged(), 0u);
    EXPECT_EQ(collector->merge_lost(), 0u);
    // The sampler ticked at barriers (10 aligned ticks in 1 s at the
    // default 100 ms period) and spans assembled over the merged mirror.
    EXPECT_EQ(health->sampler()->ticks(), 10u);
    uint64_t appended = 0;
    for (const SpanRecorder* recorder : spans->recorders()) {
      appended += recorder->appended();
    }
    EXPECT_GT(appended, 0u);

    // Runtime stations exist only once asked for, one per zone, and carry
    // the self-telemetry catalog.
    EXPECT_EQ(system.FindStation("zone-0"), nullptr);
    EXPECT_EQ(system.EnableZoneTelemetry(), collector);
    EXPECT_EQ(system.EnableZoneTelemetry(), collector);  // Idempotent.
    for (int z = 0; z < zones; ++z) {
      EXPECT_NE(system.FindStation("zone-" + std::to_string(z)), nullptr);
    }
    EXPECT_EQ(system.FindStation("zone-" + std::to_string(zones)), nullptr);
    health->Stop();  // A stopped monitor skips its barrier ticks.
    system.RunFor(Milliseconds(100));
    EXPECT_EQ(health->sampler()->ticks(), 10u);
    const std::string exposition =
        system.FindStation("zone-" + std::to_string(zones - 1))
            ->registry->TextExposition();
    EXPECT_NE(exposition.find("runtime_epochs"), std::string::npos);
    EXPECT_NE(exposition.find("runtime_barrier_wait_us"), std::string::npos);
  }
}

// Observability bit-identity: the same fleet, with the span plane and
// health monitor on at their default periods, produces identical spans,
// alert logs, postmortem documents, and merged trace streams whether it
// runs on one shard or four. The sampler's 100 ms grid coincides with the
// kernel's 100 ms audio-block timer, so a tick must read the same settled
// instant on every zone count. Speaker 4 decodes slower than realtime
// (deadline misses) and the segment is squeezed to 1 Mb/s mid-run (queue
// drops), so alerts actually fire and clear and the flight recorder writes
// postmortems.
struct ObsResult {
  FleetResult base;
  // (station, appended, dropped) per span recorder, creation order.
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> recorders;
  // Sorted span tuples across all recorders.
  std::vector<std::tuple<uint64_t, uint32_t, uint32_t, uint8_t, uint8_t,
                         uint32_t, SimTime, SimTime>>
      spans;
  // The alert log verbatim: rule evaluation order is fixed, so fire/clear
  // sequences must match tuple for tuple.
  std::vector<std::tuple<std::string, bool, double, double, SimTime>> alerts;
  std::string status;
  // (rule, json) per postmortem, capture order.
  std::vector<std::pair<std::string, std::string>> postmortems;
  uint64_t ticks = 0;
  // The merged mirror ring with record stamps.
  std::vector<std::tuple<SimTime, SimTime, uint32_t, uint32_t, uint8_t,
                         uint32_t>>
      mirror;
};

ObsResult RunObsFleet(int zones, int threads, SimDuration jitter = 0,
                      double loss = 0.0) {
  SystemOptions options;
  options.sharded.zones = zones;
  options.sharded.threads = threads;
  options.lan.jitter = jitter;
  options.lan.loss_probability = loss;
  EthernetSpeakerSystem system(options);
  Channel* channel = *system.CreateChannel("music");
  constexpr int kSpeakers = 5;
  for (int i = 0; i < kSpeakers; ++i) {
    SpeakerOptions speaker_options;
    speaker_options.name = "es" + std::to_string(i);
    // Speaker 4 cannot decode in realtime: lateness grows without bound
    // and its deadline-miss alert eventually fires.
    speaker_options.decode_speed_factor = i == kSpeakers - 1 ? 1.25 : 0.05;
    (void)*system.AddSpeaker(speaker_options, channel->group);
  }
  SpanPlane* spans = system.EnableSpanTracing();
  EthernetSpeakerSystem::HealthRuleDefaults rules;
  // The barrier-stall rule watches wall-clock waits — not comparable
  // across runs. Everything else stays on.
  rules.runtime_rules = false;
  HealthMonitor* health = system.EnableHealthMonitoring(HealthOptions{}, rules);
  EXPECT_NE(spans, nullptr);
  EXPECT_NE(health, nullptr);
  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  EXPECT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(11),
                               player_options)
                  .ok());
  system.RunUntil(Milliseconds(1500));
  system.lan()->set_bandwidth_bps(1e6);
  system.RunUntil(Milliseconds(2500));
  system.lan()->set_bandwidth_bps(100e6);
  system.RunUntil(Seconds(3));
  spans->Drain();

  ObsResult result;
  result.base = CollectResult(system);
  for (const SpanRecorder* recorder : spans->recorders()) {
    result.recorders.push_back(
        {recorder->station(), recorder->appended(), recorder->dropped()});
    for (const Span& span : recorder->spans()) {
      result.spans.push_back({span.trace_id, span.stream_id, span.seq,
                              static_cast<uint8_t>(span.stage), span.flags,
                              span.station, span.start, span.end});
    }
  }
  std::sort(result.spans.begin(), result.spans.end());
  for (const AlertTransition& t : health->engine()->log()) {
    result.alerts.push_back(
        {t.rule, t.firing, t.observed, t.threshold, t.at});
  }
  result.status = health->StatusText();
  for (const Postmortem& p : health->recorder()->postmortems()) {
    result.postmortems.push_back({p.rule, p.json});
  }
  result.ticks = health->sampler()->ticks();
  for (const TraceEvent& e : system.tracer()->events()) {
    result.mirror.push_back({e.recorded, e.at, e.stream_id, e.seq,
                             static_cast<uint8_t>(e.stage), e.node});
  }
  std::sort(result.mirror.begin(), result.mirror.end());
  EXPECT_EQ(system.tracer()->dropped(), 0u);
  const ZoneCollector* collector = system.zone_collector();
  EXPECT_NE(collector, nullptr) << "the planes build the collector";
  if (collector != nullptr) {
    EXPECT_EQ(collector->merge_lost(), 0u);
  }
  return result;
}

void ExpectObsIdentical(const ObsResult& a, const ObsResult& b) {
  ExpectIdentical(a.base, b.base);
  EXPECT_EQ(a.recorders, b.recorders);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.mirror, b.mirror);
  ASSERT_EQ(a.postmortems.size(), b.postmortems.size());
  for (size_t i = 0; i < a.postmortems.size(); ++i) {
    EXPECT_EQ(a.postmortems[i].first, b.postmortems[i].first);
    EXPECT_EQ(a.postmortems[i].second, b.postmortems[i].second)
        << "postmortem " << i << " (" << a.postmortems[i].first
        << ") diverged";
  }
}

TEST(ShardedDeterminismTest, ObservabilityPlanesAreBitIdentical) {
  ObsResult classic = RunObsFleet(/*zones=*/1, /*threads=*/1);
  ObsResult sharded = RunObsFleet(/*zones=*/4, /*threads=*/2);
  // The scenario produced real observability output to compare.
  EXPECT_GT(classic.spans.size(), 0u);
  EXPECT_GT(classic.alerts.size(), 0u);
  EXPECT_GT(classic.postmortems.size(), 0u);
  EXPECT_GT(classic.ticks, 0u);
  ExpectObsIdentical(classic, sharded);
}

TEST(ShardedDeterminismTest, ObservabilityStaysBitIdenticalUnderJitterLoss) {
  const SimDuration jitter = Microseconds(200);
  const double loss = 0.01;
  ObsResult classic = RunObsFleet(1, 1, jitter, loss);
  ObsResult sharded = RunObsFleet(4, 2, jitter, loss);
  EXPECT_GT(classic.base.lan.deliveries_lost, 0u);  // Loss actually drew.
  ExpectObsIdentical(classic, sharded);
}

// The batching reference. Every system speaker receives through a zone,
// zones = 1 included, so the independent per-speaker reference is a
// standalone EthernetSpeaker on its own NIC of the same segment: a batch
// of one on its own scheduler. On a clean LAN it hears every packet at the
// same instant as its zone twin and must end with identical stats and PCM.
// Distinct decode speeds split each zone's batches over several instants.
TEST(ShardedDeterminismTest, ZoneSpeakersMatchStandaloneSpeakers) {
  for (int zones : {1, 4}) {
    SystemOptions options;
    options.sharded.zones = zones;
    EthernetSpeakerSystem system(options);
    Channel* channel = *system.CreateChannel("music");
    constexpr int kSpeakers = 4;
    std::vector<std::unique_ptr<SimNic>> nics;
    std::vector<std::unique_ptr<EthernetSpeaker>> standalone;
    for (int i = 0; i < kSpeakers; ++i) {
      SpeakerOptions speaker_options;
      speaker_options.name = "es" + std::to_string(i);
      speaker_options.decode_speed_factor = 0.05 * (i + 1);
      (void)*system.AddSpeaker(speaker_options, channel->group);
      nics.push_back(system.lan()->CreateNic());
      standalone.push_back(std::make_unique<EthernetSpeaker>(
          system.sim(), nics.back().get(), speaker_options));
      ASSERT_TRUE(standalone.back()->Subscribe(channel->group).ok());
    }
    PlayerAppOptions player_options;
    player_options.config = AudioConfig::CdQuality();
    ASSERT_TRUE(system
                    .StartPlayer(channel,
                                 std::make_unique<MusicLikeGenerator>(11),
                                 player_options)
                    .ok());
    system.RunUntil(Seconds(3));

    for (size_t i = 0; i < kSpeakers; ++i) {
      EthernetSpeaker& zoned = *system.speakers()[i];
      EthernetSpeaker& alone = *standalone[i];
      ASSERT_GT(alone.stats().chunks_played, 25u);
      EXPECT_TRUE(zoned.stats() == alone.stats())
          << "speaker " << i << " zones=" << zones;
      EXPECT_EQ(zoned.output()->Render(Seconds(1), Seconds(1)),
                alone.output()->Render(Seconds(1), Seconds(1)))
          << "speaker " << i << " zones=" << zones;
    }
  }
}

// The group clock is shard 0's, so driving shard 0's loop directly moves
// the system clock too. Only the system-level calls run epoch barriers,
// where the observability planes tick; this system has no planes.
TEST(ShardedDeterminismTest, MixedDrivingKeepsOneClock) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  EthernetSpeaker* speaker =
      *system.AddSpeaker(SpeakerOptions{}, channel->group);
  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(11),
                               player_options)
                  .ok());
  system.sim()->RunUntil(Seconds(2));
  system.RunFor(Seconds(1));
  EXPECT_EQ(system.now(), Seconds(3));
  EXPECT_EQ(system.sim()->now(), Seconds(3));
  EXPECT_GT(speaker->stats().chunks_played, 0u);
}

TEST(ShardedDeterminismTest, ZonePlacementRoundRobins) {
  SystemOptions options;
  options.sharded.zones = 3;
  EthernetSpeakerSystem system(options);
  Channel* channel = *system.CreateChannel("music");
  for (int i = 0; i < 6; ++i) {
    (void)*system.AddSpeaker(SpeakerOptions{}, channel->group);
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(system.ZoneOf(static_cast<size_t>(i)), i % 3);
  }
}

}  // namespace
}  // namespace espk
