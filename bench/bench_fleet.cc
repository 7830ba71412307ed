// Fleet-scale throughput of the zone runtime: the same fleet (one channel,
// N tuned speakers, music-like source) is driven for a fixed stretch of
// simulated time with every speaker in one zone (zones=1: one event loop)
// and split over 4 zones (4 per-zone event loops, per-link inboxes, epoch
// barriers), and the host-side wall clock per delivered packet is reported
// for both. Either way each zone posts ONE message per packet, parses once,
// and runs one grouped decode/play event per distinct instant.
//
// The emitted BENCH_fleet.json is validated by bench_gate against
// bench/baselines/BENCH_fleet_baseline.json: the 1-zone and 4-zone runs
// must deliver IDENTICAL packet counts (the determinism contract, gated
// structurally), and the 4-zone ns/delivery at the 10k tier gets the
// shared-machine noise margin. `--quick` (used by the espk_bench_smoke
// ctest) shortens the simulated windows; the 10k-speaker tier runs even in
// quick mode so the smoke test proves the big configuration completes.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/system.h"

namespace espk {
namespace {

constexpr int kSchemaVersion = 1;
constexpr int kZones = 4;
constexpr int kSpeakersSmall = 100;
constexpr int kSpeakersMid = 1000;
constexpr int kSpeakersLarge = 10000;
constexpr int kMultiChannels = 4;
constexpr int kSpeakersMulti = 400;  // 100 per channel, round-robin zones.

struct FleetMeasurement {
  int speakers = 0;
  int zones = 0;
  uint64_t deliveries = 0;  // Per-receiver data-packet deliveries.
  uint64_t chunks_played = 0;
  uint64_t messages_posted = 0;
  double wall_ms = 0.0;
  double packets_per_sec = 0.0;   // Deliveries processed per wall second.
  double ns_per_delivery = 0.0;   // Wall ns per packet per speaker.
};

// One channel, `speakers` tuned speakers, 4 ms phone-quality packets (the
// per-packet decode work is deliberately small so the run measures the
// runtime's per-delivery machinery).
FleetMeasurement MeasureFleet(int speakers, int zones, int sim_ms) {
  using Clock = std::chrono::steady_clock;
  SystemOptions options;
  options.sharded.zones = zones;
  options.sharded.threads = 1;  // One core: serial cost, not parallelism.
  EthernetSpeakerSystem system(options);

  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  rb.packet_frames = 32;  // 4 ms at 8 kHz: a low-latency streaming chunk.
  Channel* channel = *system.CreateChannel("music", rb);
  SpeakerOptions so;
  so.decode_speed_factor = 0.02;
  for (int i = 0; i < speakers; ++i) {
    so.name = "es-" + std::to_string(i);
    (void)*system.AddSpeaker(so, channel->group);
  }
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 1600;
  if (!system
           .StartPlayer(channel, std::make_unique<MusicLikeGenerator>(21),
                        opts)
           .ok()) {
    std::fprintf(stderr, "FAIL: player did not start\n");
    std::exit(1);
  }

  const auto t0 = Clock::now();
  system.RunUntil(Milliseconds(sim_ms));
  const auto t1 = Clock::now();

  FleetMeasurement m;
  m.speakers = speakers;
  m.zones = zones;
  m.deliveries = system.lan()->stats().deliveries;
  m.messages_posted = system.shards()->messages_posted();
  for (const auto& speaker : system.speakers()) {
    m.chunks_played += speaker->stats().chunks_played;
  }
  const double wall_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  m.wall_ms = wall_ns / 1e6;
  if (m.deliveries > 0) {
    m.ns_per_delivery = wall_ns / static_cast<double>(m.deliveries);
    m.packets_per_sec = static_cast<double>(m.deliveries) / (wall_ns / 1e9);
  }
  return m;
}

// Multi-channel tier: `channels` concurrent streams with the speaker fleet
// spread across them round-robin, so each zone carries a mix of groups and
// the segment's fan-out filters per (group, member) — the service-plane
// configuration the subscription directory manages. 1 zone vs 4 zones must
// still agree exactly.
FleetMeasurement MeasureMultiChannelFleet(int channels, int speakers,
                                          int zones, int sim_ms) {
  using Clock = std::chrono::steady_clock;
  SystemOptions options;
  options.sharded.zones = zones;
  options.sharded.threads = 1;
  EthernetSpeakerSystem system(options);

  std::vector<Channel*> fleet_channels;
  for (int c = 0; c < channels; ++c) {
    RebroadcasterOptions rb;
    rb.codec_override = CodecId::kRaw;
    rb.packet_frames = 32;
    fleet_channels.push_back(
        *system.CreateChannel("music-" + std::to_string(c), rb));
  }
  SpeakerOptions so;
  so.decode_speed_factor = 0.02;
  for (int i = 0; i < speakers; ++i) {
    so.name = "es-" + std::to_string(i);
    (void)*system.AddSpeaker(
        so, fleet_channels[static_cast<size_t>(i % channels)]->group);
  }
  for (int c = 0; c < channels; ++c) {
    PlayerAppOptions opts;
    opts.config = AudioConfig::PhoneQuality();
    opts.chunk_frames = 1600;
    if (!system
             .StartPlayer(fleet_channels[static_cast<size_t>(c)],
                          std::make_unique<MusicLikeGenerator>(
                              31 + static_cast<uint64_t>(c)),
                          opts)
             .ok()) {
      std::fprintf(stderr, "FAIL: player %d did not start\n", c);
      std::exit(1);
    }
  }

  const auto t0 = Clock::now();
  system.RunUntil(Milliseconds(sim_ms));
  const auto t1 = Clock::now();

  FleetMeasurement m;
  m.speakers = speakers;
  m.zones = zones;
  m.deliveries = system.lan()->stats().deliveries;
  m.messages_posted = system.shards()->messages_posted();
  for (const auto& speaker : system.speakers()) {
    m.chunks_played += speaker->stats().chunks_played;
  }
  const double wall_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  m.wall_ms = wall_ns / 1e6;
  if (m.deliveries > 0) {
    m.ns_per_delivery = wall_ns / static_cast<double>(m.deliveries);
    m.packets_per_sec = static_cast<double>(m.deliveries) / (wall_ns / 1e9);
  }
  return m;
}

int RunFleetBench(bool quick) {
  PrintHeader("A9", "fleet-scale zone runtime: packets/sec, 1 zone vs 4 zones");
  PrintPaperNote(
      "one multicast transmission reaches every speaker (§2.2); the zone "
      "path extends that to the simulator itself: one handoff per zone "
      "and one grouped decode/play event per instant, instead of three "
      "events per packet per speaker");

  // Warmup: first system in the process pays page faults and allocator
  // growth that would otherwise bias whichever mode runs first.
  (void)MeasureFleet(kSpeakersSmall, 1, quick ? 200 : 500);

  struct Tier {
    int speakers;
    int sim_ms;
  };
  const Tier tiers[3] = {
      {kSpeakersSmall, quick ? 2000 : 4000},
      {kSpeakersMid, quick ? 1000 : 2000},
      {kSpeakersLarge, quick ? 500 : 1000},
  };
  FleetMeasurement one_zone[3];
  FleetMeasurement sharded[3];
  Table table(
      {"speakers", "mode", "deliveries", "wall ms", "us/delivery", "pkts/sec"});
  auto row = [&table](const std::string& fleet, const FleetMeasurement& m) {
    table.Row({fleet, std::to_string(m.zones) + (m.zones == 1 ? " zone" : " zones"),
               std::to_string(m.deliveries), Fmt(m.wall_ms, 1),
               Fmt(m.ns_per_delivery / 1000.0),
               Fmt(m.packets_per_sec / 1e6) + "M"});
  };
  for (int t = 0; t < 3; ++t) {
    one_zone[t] = MeasureFleet(tiers[t].speakers, 1, tiers[t].sim_ms);
    sharded[t] = MeasureFleet(tiers[t].speakers, kZones, tiers[t].sim_ms);
    row(std::to_string(tiers[t].speakers), one_zone[t]);
    row(std::to_string(tiers[t].speakers), sharded[t]);
  }

  // Structural sanity inside the harness itself: both zone counts must have
  // simulated the same fleet, and the 4-zone runs must actually have
  // crossed shards.
  for (int t = 0; t < 3; ++t) {
    if (one_zone[t].deliveries == 0 ||
        one_zone[t].deliveries != sharded[t].deliveries) {
      std::fprintf(stderr,
                   "FAIL: tier %d delivered %llu (1 zone) vs %llu "
                   "(%d zones); the runs diverged\n",
                   one_zone[t].speakers,
                   static_cast<unsigned long long>(one_zone[t].deliveries),
                   static_cast<unsigned long long>(sharded[t].deliveries),
                   kZones);
      return 1;
    }
    if (one_zone[t].chunks_played != sharded[t].chunks_played ||
        one_zone[t].chunks_played == 0) {
      std::fprintf(stderr, "FAIL: tier %d played %llu vs %llu chunks\n",
                   one_zone[t].speakers,
                   static_cast<unsigned long long>(one_zone[t].chunks_played),
                   static_cast<unsigned long long>(sharded[t].chunks_played));
      return 1;
    }
    if (sharded[t].messages_posted == 0) {
      std::fprintf(stderr, "FAIL: tier %d posted no cross-shard messages\n",
                   sharded[t].speakers);
      return 1;
    }
  }

  // Multi-channel tier: 4 channels x 4 zones. Each zone carries all four
  // groups, so the zone handoff path filters per (group, member subset).
  const int multi_sim_ms = quick ? 1000 : 2000;
  FleetMeasurement multi_one_zone = MeasureMultiChannelFleet(
      kMultiChannels, kSpeakersMulti, 1, multi_sim_ms);
  FleetMeasurement multi_sharded = MeasureMultiChannelFleet(
      kMultiChannels, kSpeakersMulti, kZones, multi_sim_ms);
  row(std::to_string(kSpeakersMulti) + "/4ch", multi_one_zone);
  row(std::to_string(kSpeakersMulti) + "/4ch", multi_sharded);
  if (multi_one_zone.deliveries == 0 ||
      multi_one_zone.deliveries != multi_sharded.deliveries ||
      multi_one_zone.chunks_played != multi_sharded.chunks_played) {
    std::fprintf(stderr,
                 "FAIL: multi-channel tier diverged: %llu/%llu deliveries, "
                 "%llu/%llu chunks\n",
                 static_cast<unsigned long long>(multi_one_zone.deliveries),
                 static_cast<unsigned long long>(multi_sharded.deliveries),
                 static_cast<unsigned long long>(multi_one_zone.chunks_played),
                 static_cast<unsigned long long>(multi_sharded.chunks_played));
    return 1;
  }
  if (multi_sharded.messages_posted == 0) {
    std::fprintf(stderr,
                 "FAIL: multi-channel tier posted no cross-shard messages\n");
    return 1;
  }

  JsonWriter json;
  json.Str("bench", "fleet");
  json.Int("schema_version", kSchemaVersion);
  json.Int("zones", kZones);
  json.Int("speakers_small", kSpeakersSmall);
  json.Int("speakers_mid", kSpeakersMid);
  json.Int("speakers_large", kSpeakersLarge);
  json.Int("deliveries_small", one_zone[0].deliveries);
  json.Int("deliveries_mid", one_zone[1].deliveries);
  json.Int("deliveries_large", one_zone[2].deliveries);
  json.Int("sharded_deliveries_small", sharded[0].deliveries);
  json.Int("sharded_deliveries_mid", sharded[1].deliveries);
  json.Int("sharded_deliveries_large", sharded[2].deliveries);
  json.Int("sharded_messages_posted_mid", sharded[1].messages_posted);
  json.Num("one_zone_pps_small", one_zone[0].packets_per_sec);
  json.Num("one_zone_pps_mid", one_zone[1].packets_per_sec);
  json.Num("one_zone_pps_large", one_zone[2].packets_per_sec);
  json.Num("sharded_pps_small", sharded[0].packets_per_sec);
  json.Num("sharded_pps_mid", sharded[1].packets_per_sec);
  json.Num("sharded_pps_large", sharded[2].packets_per_sec);
  json.Num("one_zone_ns_per_delivery_large", one_zone[2].ns_per_delivery);
  json.Num("sharded_ns_per_delivery_large", sharded[2].ns_per_delivery);
  json.Int("multichannel_channels", kMultiChannels);
  json.Int("multichannel_speakers", kSpeakersMulti);
  json.Int("multichannel_deliveries", multi_one_zone.deliveries);
  json.Int("multichannel_sharded_deliveries", multi_sharded.deliveries);
  json.Num("multichannel_one_zone_pps", multi_one_zone.packets_per_sec);
  json.Num("multichannel_sharded_pps", multi_sharded.packets_per_sec);
  if (!json.WriteFile("BENCH_fleet.json")) {
    return 1;
  }
  std::printf("wrote BENCH_fleet.json\n");
  return 0;
}

}  // namespace
}  // namespace espk

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  return espk::RunFleetBench(quick);
}
