#include <gtest/gtest.h>

#include "src/audio/analysis.h"
#include "src/baseline/baseline.h"
#include "src/core/system.h"

namespace espk {
namespace {

TEST(UnicastBaselineTest, LoadGrowsLinearlyWithListeners) {
  // The C6 motivation: each extra unicast listener adds a full stream's
  // worth of traffic; multicast stays flat.
  auto run_unicast = [](int listeners) {
    Simulation sim;
    SegmentConfig config;
    EthernetSegment segment(&sim, config);
    auto server_nic = segment.CreateNic();
    UnicastStreamServer server(&sim, server_nic.get(),
                               AudioConfig::PhoneQuality(),
                               std::make_unique<SineGenerator>(440.0), 800);
    std::vector<std::unique_ptr<SimNic>> nics;
    for (int i = 0; i < listeners; ++i) {
      nics.push_back(segment.CreateNic());
      server.AddListener(nics.back()->node_id());
    }
    server.Start();
    sim.RunUntil(Seconds(10));
    return segment.stats().bytes_on_wire;
  };
  uint64_t one = run_unicast(1);
  uint64_t eight = run_unicast(8);
  EXPECT_NEAR(static_cast<double>(eight) / static_cast<double>(one), 8.0,
              0.5);
}

TEST(UnicastBaselineTest, MulticastLoadIsFlat) {
  auto run_multicast = [](int listeners) {
    EthernetSpeakerSystem system;
    Channel* channel = *system.CreateChannel("music");
    PlayerAppOptions opts;
    opts.config = AudioConfig::PhoneQuality();
    opts.chunk_frames = 800;
    EXPECT_TRUE(system
                    .StartPlayer(channel,
                                 std::make_unique<SineGenerator>(440.0), opts)
                    .ok());
    for (int i = 0; i < listeners; ++i) {
      SpeakerOptions so;
      so.decode_speed_factor = 0.05;
      EXPECT_TRUE(system.AddSpeaker(so, channel->group).ok());
    }
    system.RunUntil(Seconds(10));
    return system.lan()->stats().bytes_on_wire;
  };
  uint64_t one = run_multicast(1);
  uint64_t eight = run_multicast(8);
  EXPECT_NEAR(static_cast<double>(eight) / static_cast<double>(one), 1.0,
              0.05);
}

TEST(UnsyncReceiverTest, PlaysTheStream) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(1), opts)
                  .ok());
  auto nic = system.lan()->CreateNic();
  UnsyncReceiver radio(system.sim(), nic.get());
  ASSERT_TRUE(radio.Tune(channel->group).ok());
  system.RunUntil(Seconds(5));
  EXPECT_TRUE(radio.ready());
  EXPECT_GT(radio.chunks_played(), 30u);
}

TEST(UnsyncReceiverTest, StaggeredStartsStayPermanentlySkewed) {
  // Two unsynchronized radios started at different times play the same
  // content offset by their buffer-fill difference — the §4.2 complaint
  // ("they do not provide synchronization between nearby stations").
  // Ethernet Speakers under identical conditions stay sample-aligned.
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(2), opts)
                  .ok());

  auto nic1 = system.lan()->CreateNic();
  UnsyncReceiver radio1(system.sim(), nic1.get());
  ASSERT_TRUE(radio1.Tune(channel->group).ok());

  // ES pair for comparison, one also joining late.
  SpeakerOptions so;
  so.decode_speed_factor = 0.05;
  EthernetSpeaker* es1 = *system.AddSpeaker(so, channel->group);

  system.RunUntil(Seconds(3));

  auto nic2 = system.lan()->CreateNic();
  UnsyncReceiver radio2(system.sim(), nic2.get());
  ASSERT_TRUE(radio2.Tune(channel->group).ok());
  EthernetSpeaker* es2 = *system.AddSpeaker(so, channel->group);

  system.RunUntil(Seconds(12));

  // Compare over a window where everyone is playing.
  const SimTime from = Seconds(8);
  const SimDuration window = Seconds(1);
  std::vector<float> r1 = radio1.output()->Render(from, window);
  std::vector<float> r2 = radio2.output()->Render(from, window);
  AlignmentResult radio_alignment =
      FindAlignment(r1, r2, 2 * 44100 / 4);  // Search up to 250 ms.
  double radio_skew_ms = std::abs(static_cast<double>(radio_alignment.lag)) /
                         2.0 / 44.1;

  std::vector<float> e1 = es1->output()->Render(from, window);
  std::vector<float> e2 = es2->output()->Render(from, window);
  AlignmentResult es_alignment = FindAlignment(e1, e2, 2 * 44100 / 4);
  double es_skew_ms =
      std::abs(static_cast<double>(es_alignment.lag)) / 2.0 / 44.1;

  // The radios are audibly apart (the late joiner buffered mid-stream);
  // the Ethernet Speakers are sample-aligned.
  EXPECT_EQ(es_skew_ms, 0.0);
  EXPECT_GT(radio_skew_ms, 5.0);
}

}  // namespace
}  // namespace espk
