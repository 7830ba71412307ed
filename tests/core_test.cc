// Tests for the system facade extras: the MSNIP-style presence monitor
// (§4.3), clock-offset smoothing (extension), and facade edge cases.
#include <gtest/gtest.h>

#include "src/core/presence.h"
#include "src/core/system.h"

namespace espk {
namespace {

TEST(PresenceTest, ChannelSuspendsWithoutListenersAndResumesOnJoin) {
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  (void)*system.StartPlayer(channel, std::make_unique<SineGenerator>(440.0),
                            opts);
  PresenceMonitorOptions pm;
  pm.poll_interval = Seconds(1);
  pm.absent_polls_before_suspend = 3;
  PresenceMonitor monitor(&system, pm);
  monitor.Start();

  // No listeners: after 3 polls the channel suspends.
  system.sim()->RunUntil(Seconds(5));
  EXPECT_TRUE(channel->rebroadcaster->suspended());
  EXPECT_EQ(monitor.suspensions(), 1u);
  uint64_t packets_when_suspended =
      channel->rebroadcaster->stats().data_packets;
  uint64_t control_when_suspended =
      channel->rebroadcaster->stats().control_packets;

  // Ten more seconds of silence on the wire — but control packets keep
  // going so the channel remains joinable.
  system.sim()->RunUntil(Seconds(15));
  EXPECT_EQ(channel->rebroadcaster->stats().data_packets,
            packets_when_suspended);
  EXPECT_GT(channel->rebroadcaster->stats().control_packets,
            control_when_suspended + 5);
  EXPECT_GT(channel->rebroadcaster->stats().packets_suppressed, 0u);

  // A speaker tunes in: the channel resumes within a poll and the speaker
  // hears audio.
  SpeakerOptions so;
  so.decode_speed_factor = 0.1;
  EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);
  system.sim()->RunUntil(Seconds(25));
  EXPECT_FALSE(channel->rebroadcaster->suspended());
  EXPECT_EQ(monitor.resumptions(), 1u);
  EXPECT_GT(speaker->stats().chunks_played, 12u);  // ~2 chunks/s at 8 kHz.
}

TEST(PresenceTest, ListenerPresentFromTheStartNeverSuspends) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  (void)*system.StartPlayer(channel, std::make_unique<SineGenerator>(440.0),
                            opts);
  SpeakerOptions so;
  so.decode_speed_factor = 0.1;
  (void)*system.AddSpeaker(so, channel->group);
  PresenceMonitor monitor(&system);
  monitor.Start();
  system.sim()->RunUntil(Seconds(10));
  EXPECT_EQ(monitor.suspensions(), 0u);
  EXPECT_FALSE(channel->rebroadcaster->suspended());
}

TEST(PresenceTest, UntuneEventuallySuspends) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  (void)*system.StartPlayer(channel, std::make_unique<SineGenerator>(440.0),
                            opts);
  SpeakerOptions so;
  so.decode_speed_factor = 0.1;
  EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);
  PresenceMonitor monitor(&system);
  monitor.Start();
  system.sim()->RunUntil(Seconds(5));
  EXPECT_FALSE(channel->rebroadcaster->suspended());
  ASSERT_TRUE(speaker->Untune().ok());
  system.sim()->RunUntil(Seconds(12));
  EXPECT_TRUE(channel->rebroadcaster->suspended());
}

TEST(ClockSmoothingTest, ReducesJitterInducedSkew) {
  // Under delivery jitter, the paper's latest-wins clock lets each control
  // packet shift a speaker's timeline by the jitter amount; smoothing
  // averages it out. Compare worst-case pairwise skew measured over many
  // control epochs.
  auto run = [](double alpha) {
    SystemOptions sys;
    sys.lan.jitter = Milliseconds(8);
    EthernetSpeakerSystem system(sys);
    RebroadcasterOptions rb;
    rb.codec_override = CodecId::kRaw;
    rb.control_interval = Milliseconds(500);
    Channel* channel = *system.CreateChannel("music", rb);
    SpeakerOptions so;
    so.decode_speed_factor = 0.05;
    so.clock_smoothing_alpha = alpha;
    (void)*system.AddSpeaker(so, channel->group);
    (void)*system.AddSpeaker(so, channel->group);
    PlayerAppOptions opts;
    opts.config = AudioConfig::PhoneQuality();
    opts.chunk_frames = 800;
    EXPECT_TRUE(system
                    .StartPlayer(channel,
                                 std::make_unique<WhiteNoiseGenerator>(311), opts)
                    .ok());
    // Sample skew across several control epochs and keep the worst.
    double worst = 0.0;
    for (int probe = 0; probe < 8; ++probe) {
      system.sim()->RunFor(Seconds(2));
      auto report = system.MeasureSync(system.sim()->now() - Seconds(1),
                                       Milliseconds(600), Milliseconds(30));
      worst = std::max(worst, report.max_skew_seconds);
    }
    return worst;
  };
  double paper_behavior = run(1.0);
  double smoothed = run(0.1);
  EXPECT_LE(smoothed, paper_behavior);
  EXPECT_LT(smoothed, 0.006);  // Well under the 8 ms jitter.
}

TEST(SystemTest, NicOfKnownAndUnknownSpeakers) {
  EthernetSpeakerSystem system;
  SpeakerOptions so;
  EthernetSpeaker* speaker = *system.AddSpeaker(so);
  EXPECT_NE(system.NicOf(speaker), nullptr);
  EthernetSpeaker other(system.sim(), system.NicOf(speaker), so);
  EXPECT_EQ(system.NicOf(&other), nullptr);
}

TEST(SystemTest, MeasureSyncWithNoSpeakersIsEmpty) {
  EthernetSpeakerSystem system;
  auto report = system.MeasureSync(0, Seconds(1));
  EXPECT_EQ(report.speaker_pairs, 0);
  EXPECT_EQ(report.max_skew_seconds, 0.0);
}

TEST(SystemTest, ChannelsGetDistinctGroupsAndDevices) {
  EthernetSpeakerSystem system;
  Channel* a = *system.CreateChannel("a");
  Channel* b = *system.CreateChannel("b");
  EXPECT_NE(a->group, b->group);
  EXPECT_NE(a->slave_path, b->slave_path);
  EXPECT_NE(a->stream_id, b->stream_id);
}

TEST(SystemTest, StationMetricsAreRegisteredOnlyOnTheirStation) {
  // Channel and speaker metrics live on "rb-<sid>" / "es-<i>" alone; the
  // system registry keeps system-wide metrics and does not grow with them.
  EthernetSpeakerSystem system;
  const size_t system_metrics = system.metrics()->size();
  Channel* channel = *system.CreateChannel("music");
  EXPECT_EQ(system.metrics()->size(), system_metrics);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(system.AddSpeaker(SpeakerOptions{}, channel->group).ok());
  }
  EXPECT_EQ(system.metrics()->size(), system_metrics);
  EXPECT_NE(system.FindStation("rb-1")->registry->Find(
                "rebroadcast.data_packets"),
            nullptr);
  EXPECT_NE(system.FindStation("es-49")->registry->Find("speaker.late_drops"),
            nullptr);
  EXPECT_EQ(system.metrics()->Find("speaker.49.late_drops"), nullptr);
}

}  // namespace
}  // namespace espk
