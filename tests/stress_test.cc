// Stress and robustness: long runs under combined impairments, fuzzed
// input on every parser a speaker exposes to the network, scaling in
// channels and speakers, and determinism of the whole simulation.
#include <gtest/gtest.h>

#include "src/audio/analysis.h"
#include "src/base/prng.h"
#include "src/boot/netboot.h"
#include "src/boot/tar.h"
#include "src/core/system.h"
#include "src/kernel/vad.h"
#include "src/mgmt/agent.h"
#include "src/security/hors.h"
#include "src/security/tesla.h"

namespace espk {
namespace {

TEST(StressTest, LongRunUnderLossAndJitterStaysHealthy) {
  // Two minutes of CD audio through 5% loss and 4 ms jitter: the speaker
  // must keep playing the whole time with bounded damage and no drift.
  SystemOptions sys;
  sys.lan.loss_probability = 0.05;
  sys.lan.jitter = Milliseconds(4);
  EthernetSpeakerSystem system(sys);
  Channel* channel = *system.CreateChannel("music");
  SpeakerOptions so;
  so.decode_speed_factor = 0.1;
  EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(1),
                            opts);
  system.RunUntil(Seconds(120));

  const SpeakerStats& stats = speaker->stats();
  // ~10.7 packets/s for 120 s, ~5% lost in the network.
  EXPECT_GT(stats.chunks_played, 1000u);
  EXPECT_EQ(stats.bad_packets, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  // The speaker keeps playing through to the end (no pipeline wedge).
  EXPECT_GT(speaker->output()->last_end(), Seconds(119));
  // Loss shows up as gaps, not as lateness spirals.
  EXPECT_LT(stats.late_drops, stats.chunks_played / 20);
}

TEST(StressTest, HealthMonitoringStaysQuietOverLongHealthyRun) {
  // A minute of clean playback with the full default SLO rule set armed:
  // nothing may fire, flap, or leave a postmortem — the alert layer has to
  // be silent on a healthy system or nobody will trust it when it pages.
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  SpeakerOptions so;
  so.decode_speed_factor = 0.1;
  (void)*system.AddSpeaker(so, channel->group);
  HealthMonitor* health = system.EnableHealthMonitoring();
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(5),
                            opts);
  system.RunUntil(Seconds(60));

  EXPECT_EQ(health->engine()->fired_total(), 0u) << health->StatusText();
  EXPECT_EQ(health->engine()->resolved_total(), 0u);
  EXPECT_TRUE(health->engine()->ActiveAlerts().empty());
  EXPECT_TRUE(health->recorder()->postmortems().empty());
  // The sampler ticked the whole way through (10 Hz default).
  EXPECT_GT(health->sampler()->ticks(), 590u);
}

TEST(StressTest, SimulationIsDeterministic) {
  // Two identical runs produce byte-identical outcomes — the property
  // every experiment in EXPERIMENTS.md relies on.
  auto run = [] {
    SystemOptions sys;
    sys.lan.loss_probability = 0.1;
    sys.lan.jitter = Milliseconds(5);
    sys.lan.seed = 99;
    EthernetSpeakerSystem system(sys);
    Channel* channel = *system.CreateChannel("music");
    SpeakerOptions so;
    so.decode_speed_factor = 0.2;
    EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);
    PlayerAppOptions opts;
    opts.config = AudioConfig::CdQuality();
    (void)*system.StartPlayer(channel,
                              std::make_unique<MusicLikeGenerator>(5), opts);
    system.RunUntil(Seconds(10));
    struct Outcome {
      uint64_t played;
      uint64_t late;
      uint64_t received;
      uint64_t wire_bytes;
      uint64_t events;
    };
    return std::tuple(speaker->stats().chunks_played,
                      speaker->stats().late_drops,
                      speaker->stats().packets_received,
                      system.lan()->stats().bytes_on_wire,
                      system.sim()->events_processed());
  };
  EXPECT_EQ(run(), run());
}

TEST(StressTest, SixteenChannelsSixteenSpeakers) {
  EthernetSpeakerSystem system;
  std::vector<EthernetSpeaker*> speakers;
  for (int i = 0; i < 16; ++i) {
    RebroadcasterOptions rb;
    rb.codec_override = CodecId::kRaw;  // Keep the test fast.
    Channel* channel =
        *system.CreateChannel("ch" + std::to_string(i), rb);
    PlayerAppOptions opts;
    opts.config = AudioConfig::PhoneQuality();
    opts.chunk_frames = 800;
    ASSERT_TRUE(system
                    .StartPlayer(channel,
                                 std::make_unique<SineGenerator>(
                                     200.0 + 50.0 * i),
                                 opts)
                    .ok());
    SpeakerOptions so;
    so.decode_speed_factor = 0.1;
    speakers.push_back(*system.AddSpeaker(so, channel->group));
  }
  system.RunUntil(Seconds(10));
  for (EthernetSpeaker* speaker : speakers) {
    EXPECT_TRUE(speaker->ready());
    EXPECT_GT(speaker->stats().chunks_played, 10u);
    EXPECT_EQ(speaker->stats().late_drops, 0u);
  }
}

TEST(StressTest, SpeakerSurvivesSeededDatagramFuzz) {
  // 5000 random datagrams straight into the speaker's receive path, plus
  // truncated/mutated copies of genuine packets. No crashes, no UB; every
  // datagram lands in exactly one stats bucket.
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto nic = segment.CreateNic();
  SpeakerOptions so;
  so.decode_speed_factor = 0.0;
  EthernetSpeaker speaker(&sim, nic.get(), so);
  ASSERT_TRUE(speaker.Tune(kFirstChannelGroup).ok());

  // Seed a genuine control + data packet to mutate.
  ControlPacket control;
  control.stream_id = 1;
  control.config = AudioConfig::PhoneQuality();
  control.codec = CodecId::kRaw;
  Bytes control_wire = SerializePacket(control);
  DataPacket data;
  data.stream_id = 1;
  data.seq = 1;
  data.frame_count = 80;
  data.payload = Bytes(80, 0x42);
  Bytes data_wire = SerializePacket(data);

  Prng prng(4242);
  for (int i = 0; i < 5000; ++i) {
    Datagram d;
    d.group = kFirstChannelGroup;
    // Payload slices are immutable; mutate a scratch Bytes and adopt it.
    Bytes scratch;
    switch (prng.NextBelow(4)) {
      case 0: {  // Pure noise.
        scratch.resize(prng.NextBelow(300) + 1);
        for (auto& b : scratch) {
          b = static_cast<uint8_t>(prng.NextU64());
        }
        break;
      }
      case 1: {  // Truncated genuine packet.
        const Bytes& src = prng.NextBool(0.5) ? control_wire : data_wire;
        scratch.assign(src.begin(),
                       src.begin() + static_cast<long>(
                                         prng.NextBelow(src.size()) + 1));
        break;
      }
      case 2: {  // Bit-flipped genuine packet.
        scratch = prng.NextBool(0.5) ? control_wire : data_wire;
        scratch[prng.NextBelow(scratch.size())] ^=
            static_cast<uint8_t>(1u << prng.NextBelow(8));
        break;
      }
      default: {  // Genuine packet (keeps the state machine moving).
        scratch = prng.NextBool(0.5) ? control_wire : data_wire;
        break;
      }
    }
    d.payload = std::move(scratch);
    speaker.HandleDatagram(d);
    if (i % 256 == 0) {
      sim.RunFor(Milliseconds(10));
    }
  }
  sim.Run();
  const SpeakerStats& stats = speaker.stats();
  EXPECT_EQ(stats.packets_received, 5000u);
  EXPECT_GT(stats.bad_packets, 1000u);  // Most mutations must be caught.
  SUCCEED();
}

TEST(StressTest, MgmtAgentSurvivesRequestFuzz) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto speaker_nic = segment.CreateNic();
  auto attacker_nic = segment.CreateNic();
  SpeakerOptions so;
  EthernetSpeaker speaker(&sim, speaker_nic.get(), so);
  SpeakerAgent agent(&sim, speaker_nic.get(), &speaker);

  Prng prng(777);
  for (int i = 0; i < 2000; ++i) {
    Bytes payload(prng.NextBelow(100) + 1);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(prng.NextU64());
    }
    (void)attacker_nic->SendMulticast(kMgmtGroup, payload);
  }
  sim.Run();
  SUCCEED();  // No crash; malformed requests were all discarded.
}

TEST(StressTest, NetbootServersSurviveFuzz) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto server_nic = segment.CreateNic();
  auto dhcp_nic = segment.CreateNic();
  auto attacker_nic = segment.CreateNic();
  Bytes key = {1, 2, 3};
  RamdiskImage image = BuildStandardEsImage(DigestToBytes(Sha256::Hash(key)));
  BootServer boot_server(&sim, server_nic.get(), image, key);
  DhcpServer dhcp(&sim, dhcp_nic.get(), server_nic->node_id());

  Prng prng(888);
  for (int i = 0; i < 2000; ++i) {
    Bytes payload(prng.NextBelow(64) + 1);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(prng.NextU64());
    }
    (void)attacker_nic->SendUnicast(server_nic->node_id(), payload);
    (void)attacker_nic->SendUnicast(dhcp_nic->node_id(), payload);
  }
  sim.Run();
  // And a genuine client still boots afterwards.
  auto client_nic = segment.CreateNic();
  NetbootClient client(&sim, client_nic.get());
  bool booted = false;
  client.Boot([&](Result<NetbootClient::BootResult> r) { booted = r.ok(); });
  sim.RunFor(Seconds(5));
  EXPECT_TRUE(booted);
}

TEST(StressTest, SecurityParsersSurviveFuzz) {
  Prng prng(999);
  for (int i = 0; i < 3000; ++i) {
    Bytes garbage(prng.NextBelow(200) + 1);
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(prng.NextU64());
    }
    (void)HorsPublicKey::Deserialize(garbage);
    (void)HorsSignature::Deserialize(garbage);
    (void)TeslaTag::Deserialize(garbage);
    (void)VadRecord::Deserialize(garbage);
    (void)ExtractTar(garbage);
  }
  SUCCEED();
}

TEST(StressTest, RapidChannelHoppingStaysConsistent) {
  EthernetSpeakerSystem system;
  std::vector<Channel*> channels;
  for (int i = 0; i < 4; ++i) {
    RebroadcasterOptions rb;
    rb.codec_override = CodecId::kRaw;
    rb.control_interval = Milliseconds(200);
    channels.push_back(*system.CreateChannel("hop" + std::to_string(i), rb));
    PlayerAppOptions opts;
    opts.config = AudioConfig::PhoneQuality();
    opts.chunk_frames = 800;
    ASSERT_TRUE(system
                    .StartPlayer(channels.back(),
                                 std::make_unique<SineGenerator>(300.0 + i),
                                 opts)
                    .ok());
  }
  SpeakerOptions so;
  so.decode_speed_factor = 0.1;
  EthernetSpeaker* speaker = *system.AddSpeaker(so, channels[0]->group);
  Prng prng(1234);
  for (int hop = 0; hop < 40; ++hop) {
    system.RunFor(Milliseconds(500));
    Channel* target = channels[prng.NextBelow(4)];
    ASSERT_TRUE(speaker->Tune(target->group).ok());
  }
  // Each hop drops the old subscription's in-flight pipeline obligations
  // (a chunk queued for the previous channel must not play into the new
  // one), so sustained playback only accumulates once the hopping stops:
  // give the final channel a long settle window at ~2 data packets/sec.
  system.RunFor(Seconds(8));
  EXPECT_TRUE(speaker->ready());
  EXPECT_GT(speaker->stats().chunks_played, 10u);
  EXPECT_EQ(speaker->stats().bad_packets, 0u);
}

}  // namespace
}  // namespace espk
