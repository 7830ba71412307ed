// Unit tests for the producer side: the §3.1 rate limiter, the WAN framing,
// the kernel streamer, and rebroadcaster behaviours not covered by the
// end-to-end pipeline tests.
#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/lan/segment.h"
#include "src/rebroadcast/kernel_streamer.h"
#include "src/rebroadcast/rate_limiter.h"
#include "src/rebroadcast/wan.h"

namespace espk {
namespace {

// ------------------------------------------------------------ RateLimiter --

TEST(RateLimiterTest, AllowsUpToLeadThenPaces) {
  RateLimiter limiter(Milliseconds(500));
  limiter.Reset(0);
  // First 500 ms of audio may go immediately.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(limiter.EarliestSendTime(0, Milliseconds(100)), 0) << i;
    limiter.Advance(Milliseconds(100));
  }
  // The sixth chunk must wait until real time catches up.
  SimTime earliest = limiter.EarliestSendTime(0, Milliseconds(100));
  EXPECT_EQ(earliest, 0);  // Position 500ms - lead 500ms = t 0... boundary.
  limiter.Advance(Milliseconds(100));
  earliest = limiter.EarliestSendTime(0, Milliseconds(100));
  EXPECT_EQ(earliest, Milliseconds(100));
}

TEST(RateLimiterTest, SteadyStateMatchesRealTime) {
  RateLimiter limiter(Milliseconds(200));
  limiter.Reset(0);
  // Send 10 s of audio as fast as allowed; the last chunk's send time must
  // be ~10 s - lead.
  SimTime now = 0;
  for (int i = 0; i < 100; ++i) {
    now = std::max(now, limiter.EarliestSendTime(now, Milliseconds(100)));
    limiter.Advance(Milliseconds(100));
  }
  EXPECT_EQ(now, Seconds(10) - Milliseconds(200) - Milliseconds(100));
}

TEST(RateLimiterTest, NotStartedAllowsEverything) {
  RateLimiter limiter(Milliseconds(100));
  EXPECT_FALSE(limiter.started());
  EXPECT_EQ(limiter.EarliestSendTime(Seconds(5), Seconds(100)), Seconds(5));
}

TEST(RateLimiterTest, CatchUpAfterIdleGap) {
  RateLimiter limiter(Milliseconds(100));
  limiter.Reset(0);
  // 1 s of audio sent, then the source goes silent for 10 s.
  for (int i = 0; i < 10; ++i) {
    limiter.Advance(Milliseconds(100));
  }
  // Without CatchUp, the limiter thinks we are 9 s behind and would let
  // 9 s of audio through at wire speed.
  limiter.CatchUp(Seconds(10));
  SimTime earliest = limiter.EarliestSendTime(Seconds(10), Milliseconds(100));
  EXPECT_EQ(earliest, Seconds(10));
  limiter.Advance(Milliseconds(100));
  // The next chunk is paced again, not burst.
  earliest = limiter.EarliestSendTime(Seconds(10), Milliseconds(100));
  EXPECT_EQ(earliest, Seconds(10));
  limiter.Advance(Milliseconds(100));
  earliest = limiter.EarliestSendTime(Seconds(10), Milliseconds(100));
  EXPECT_EQ(earliest, Seconds(10) + Milliseconds(100));
}

TEST(RateLimiterTest, CatchUpIsNoOpWhenAhead) {
  RateLimiter limiter(Milliseconds(100));
  limiter.Reset(0);
  limiter.Advance(Seconds(1));  // 1 s of audio sent instantly (within lead).
  limiter.CatchUp(Milliseconds(10));  // Real time has NOT overtaken.
  // Still throttled: position 1 s, now 10 ms.
  SimTime earliest =
      limiter.EarliestSendTime(Milliseconds(10), Milliseconds(100));
  EXPECT_EQ(earliest, Milliseconds(900));
}

// -------------------------------------------------------------- WanChunk --

TEST(WanChunkTest, SerializationRoundTrip) {
  WanChunk chunk;
  chunk.seq = 77;
  chunk.pcm = {1, 2, 3, 4};
  Result<WanChunk> back = WanChunk::Deserialize(chunk.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->seq, 77u);
  EXPECT_EQ(back->pcm, chunk.pcm);
}

TEST(WanChunkTest, GarbageRejected) {
  EXPECT_FALSE(WanChunk::Deserialize({}).ok());
  EXPECT_FALSE(WanChunk::Deserialize({1, 2}).ok());
}

TEST(WanServerTest, NoListenersNoTraffic) {
  Simulation sim;
  EthernetSegment wan(&sim, SegmentConfig{});
  auto nic = wan.CreateNic();
  WanAudioServer server(&sim, nic.get(), AudioConfig::PhoneQuality(),
                        std::make_unique<SineGenerator>(440.0));
  server.Start();
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(server.chunks_sent(), 0u);
  EXPECT_EQ(wan.stats().packets_offered, 0u);
}

TEST(WanServerTest, PerListenerUnicastCopies) {
  Simulation sim;
  EthernetSegment wan(&sim, SegmentConfig{});
  auto server_nic = wan.CreateNic();
  auto l1 = wan.CreateNic();
  auto l2 = wan.CreateNic();
  WanAudioServer server(&sim, server_nic.get(), AudioConfig::PhoneQuality(),
                        std::make_unique<SineGenerator>(440.0));
  server.AddListener(l1->node_id());
  server.AddListener(l2->node_id());
  server.Start();
  sim.RunUntil(Seconds(2));
  server.Stop();
  sim.RunFor(Milliseconds(10));  // Drain in-flight deliveries.
  EXPECT_EQ(l1->packets_received(), l2->packets_received());
  EXPECT_GT(l1->packets_received(), 10u);
  EXPECT_EQ(server.chunks_sent(), 2 * l1->packets_received());
}

// ---------------------------------------------------------- Rebroadcaster --

TEST(RebroadcasterTest, DoubleStartFails) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  EXPECT_FALSE(channel->rebroadcaster->Start().ok());  // Already started.
}

TEST(RebroadcasterTest, OpeningMissingMasterFails) {
  Simulation sim;
  SimKernel kernel(&sim);
  EthernetSegment lan(&sim, SegmentConfig{});
  auto nic = lan.CreateNic();
  Rebroadcaster rb(&kernel, 1, "/dev/vadm99", nic.get(),
                   RebroadcasterOptions{});
  EXPECT_FALSE(rb.Start().ok());
}

TEST(RebroadcasterTest, ControlPacketsKeepComingWithoutAudio) {
  // §2.3: control packets are periodic so late joiners can always sync,
  // even during silence in the source.
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.control_interval = Milliseconds(500);
  Channel* channel = *system.CreateChannel("music", rb);
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  opts.total_frames = 800;  // A tenth of a second, then silence.
  (void)*system.StartPlayer(channel,
                            std::make_unique<SineGenerator>(440.0), opts);
  system.RunUntil(Seconds(10));
  // ~2 control packets per second for 10 s, despite ~0.1 s of audio.
  EXPECT_GE(channel->rebroadcaster->stats().control_packets, 18u);
  EXPECT_LE(channel->rebroadcaster->stats().data_packets, 1u);
}

TEST(RebroadcasterTest, ConfigChangeMidStreamBumpsControlSeq) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  PlayerAppOptions first;
  first.config = AudioConfig::PhoneQuality();
  first.chunk_frames = 800;
  first.total_frames = 8000;
  (void)*system.StartPlayer(channel, std::make_unique<SineGenerator>(440.0),
                            first);
  system.RunUntil(Seconds(3));
  EXPECT_EQ(channel->rebroadcaster->stats().config_changes, 1u);
  EXPECT_EQ(channel->rebroadcaster->config().sample_rate, 8000);

  PlayerAppOptions second;
  second.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel,
                            std::make_unique<MusicLikeGenerator>(1), second);
  system.RunUntil(Seconds(6));
  EXPECT_EQ(channel->rebroadcaster->stats().config_changes, 2u);
  EXPECT_EQ(channel->rebroadcaster->config().sample_rate, 44100);
  EXPECT_TRUE(channel->rebroadcaster->compressing());
}

TEST(RebroadcasterTest, EncodeCpuIsTracked) {
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kVorbix;
  Channel* channel = *system.CreateChannel("music", rb);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(2),
                            opts);
  system.RunUntil(Seconds(3));
  EXPECT_GT(channel->rebroadcaster->encode_cpu_seconds(), 0.0);
}

// --------------------------------------------------------- KernelStreamer --

TEST(KernelStreamerTest, StreamsRawBlocksWithDeadlines) {
  Simulation sim;
  SimKernel kernel(&sim);
  EthernetSegment lan(&sim, SegmentConfig{});
  auto producer_nic = lan.CreateNic();
  auto listener_nic = lan.CreateNic();
  (void)listener_nic->JoinGroup(kFirstChannelGroup);
  uint64_t data_seen = 0;
  uint64_t control_seen = 0;
  SimTime last_deadline = -1;
  bool deadlines_monotone = true;
  listener_nic->SetReceiveHandler([&](const Datagram& d) {
    Result<ParsedPacket> parsed = ParsePacket(d.payload);
    if (!parsed.ok()) {
      return;
    }
    if (const auto* data = std::get_if<DataPacket>(&parsed->packet)) {
      ++data_seen;
      deadlines_monotone =
          deadlines_monotone && data->play_deadline > last_deadline;
      last_deadline = data->play_deadline;
    } else if (std::holds_alternative<ControlPacket>(parsed->packet)) {
      ++control_seen;
    }
  });

  [[maybe_unused]] auto vad = *CreateVadPair(&kernel, 0);
  KernelStreamer streamer(&kernel, vad, producer_nic.get(),
                          KernelStreamerOptions{});
  // A live source paced at real time (in-kernel streaming has no rate
  // limiter of its own — an unpaced writer would blast at wire speed).
  AudioConfig config = AudioConfig::PhoneQuality();
  int fd = *kernel.Open(10, "/dev/vads0");
  ByteWriter w;
  config.Serialize(&w);
  Bytes cfg = w.TakeBytes();
  ASSERT_TRUE(kernel.Ioctl(10, fd, IoctlCmd::kAudioSetInfo, &cfg).ok());
  SineGenerator gen(440.0);
  PeriodicTask writer(&sim, Milliseconds(100), [&](SimTime) {
    kernel.Write(10, fd, gen.GenerateBytes(800, config),
                 [](Result<size_t>) {});
  });
  writer.Start();
  sim.RunUntil(Seconds(5));
  writer.Stop();
  sim.RunFor(Milliseconds(50));  // Drain in-flight deliveries and pump.

  EXPECT_GT(data_seen, 20u);
  EXPECT_GE(control_seen, 5u);
  EXPECT_TRUE(deadlines_monotone);
  EXPECT_EQ(streamer.data_packets(), data_seen);
}

// ------------------------------------------------------------- PlayerApp --

TEST(PlayerAppTest, FiniteSongFinishesAndReleasesDevice) {
  Simulation sim;
  SimKernel kernel(&sim);
  [[maybe_unused]] auto vad = *CreateVadPair(&kernel, 0);
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  opts.total_frames = 4000;
  PlayerApp player(&kernel, 10, "/dev/vads0",
                   std::make_unique<SineGenerator>(440.0), opts);
  bool finished = false;
  player.set_on_finished([&] { finished = true; });
  ASSERT_TRUE(player.Start().ok());
  sim.RunUntil(Seconds(5));
  EXPECT_TRUE(finished);
  EXPECT_TRUE(player.finished());
  EXPECT_EQ(player.frames_written(), 4000);
  // Device released: the next player can open it.
  PlayerApp next(&kernel, 11, "/dev/vads0",
                 std::make_unique<SineGenerator>(880.0), opts);
  EXPECT_TRUE(next.Start().ok());
}

TEST(PlayerAppTest, OpenFailurePropagates) {
  Simulation sim;
  SimKernel kernel(&sim);
  PlayerApp player(&kernel, 10, "/dev/nonexistent",
                   std::make_unique<SineGenerator>(440.0),
                   PlayerAppOptions{});
  EXPECT_FALSE(player.Start().ok());
}

}  // namespace
}  // namespace espk
