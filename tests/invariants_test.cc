// Property-style invariant tests: conservation laws that must hold across
// the whole impairment/parameter space, checked with parameterized sweeps.
#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/kernel/vad.h"
#include "src/rebroadcast/player_app.h"

namespace espk {
namespace {

// ------------------------------------------- LAN accounting conservation --

struct LanCase {
  double loss;
  SimDuration jitter;
  double bandwidth_bps;
};

class LanConservation : public ::testing::TestWithParam<LanCase> {};

TEST_P(LanConservation, PacketAccountingBalances) {
  const LanCase& tc = GetParam();
  Simulation sim;
  SegmentConfig config;
  config.loss_probability = tc.loss;
  config.jitter = tc.jitter;
  config.bandwidth_bps = tc.bandwidth_bps;
  config.tx_queue_limit = 32 * 1024;
  EthernetSegment segment(&sim, config);
  auto sender = segment.CreateNic();
  auto r1 = segment.CreateNic();
  auto r2 = segment.CreateNic();
  ASSERT_TRUE(r1->JoinGroup(5).ok());
  ASSERT_TRUE(r2->JoinGroup(5).ok());
  Prng prng(1);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(sender->SendMulticast(5, Bytes(prng.NextBelow(1400) + 1)).ok());
    if (i % 16 == 0) {
      sim.RunFor(Milliseconds(5));
    }
  }
  sim.Run();

  const SegmentStats& stats = segment.stats();
  // Everything offered was either sent or queue-dropped.
  EXPECT_EQ(stats.packets_offered,
            stats.packets_sent + stats.packets_dropped_queue);
  // Each sent multicast packet produced one delivery attempt per member.
  EXPECT_EQ(stats.deliveries, stats.packets_sent * 2);
  // Delivery attempts were either lost or received.
  EXPECT_EQ(stats.deliveries - stats.deliveries_lost,
            r1->packets_received() + r2->packets_received());
}

INSTANTIATE_TEST_SUITE_P(
    ImpairmentMatrix, LanConservation,
    ::testing::Values(LanCase{0.0, 0, 100e6},
                      LanCase{0.1, 0, 100e6},
                      LanCase{0.0, Milliseconds(10), 100e6},
                      LanCase{0.3, Milliseconds(5), 10e6},
                      LanCase{0.05, Milliseconds(2), 1e6}));

// --------------------------------------- VAD byte conservation invariant --

class VadConservation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VadConservation, BytesInEqualsBytesOutPlusBuffered) {
  auto [ring_kb, chunk_frames] = GetParam();
  Simulation sim;
  SimKernel kernel(&sim);
  VadOptions options;
  options.slave_ring_capacity = static_cast<size_t>(ring_kb) * 1024;
  auto vad = *CreateVadPair(&kernel, 0, options);
  uint64_t sink_bytes = 0;
  vad.lld->set_kernel_sink(
      [&](const Bytes& block, const AudioConfig&) { sink_bytes += block.size(); });

  AudioConfig config{8000, 1, AudioEncoding::kLinearS16};
  PlayerAppOptions opts;
  opts.config = config;
  opts.chunk_frames = chunk_frames;
  opts.total_frames = 8000 * 2;
  PlayerApp player(&kernel, 10, "/dev/vads0",
                   std::make_unique<SineGenerator>(440.0), opts);
  ASSERT_TRUE(player.Start().ok());
  sim.RunUntil(Seconds(10));

  // Conservation through the kernel: everything the app wrote is either in
  // the slave ring or was pumped to the sink. No bytes invented or lost.
  EXPECT_EQ(vad.slave->bytes_written(),
            sink_bytes + vad.slave->buffered());
  EXPECT_EQ(vad.slave->bytes_written(),
            static_cast<uint64_t>(player.frames_written()) * 2u);
  EXPECT_EQ(vad.slave->silence_bytes_inserted(), 0u);  // Pseudo: no silence.
}

INSTANTIATE_TEST_SUITE_P(RingAndChunkSizes, VadConservation,
                         ::testing::Combine(::testing::Values(4, 16, 64),
                                            ::testing::Values(100, 800,
                                                              4000)));

// ------------------------------------ pipeline end-to-end frame counting --

class PipelineConservation : public ::testing::TestWithParam<double> {};

TEST_P(PipelineConservation, SentEqualsPlayedPlusDroppedUnderLoss) {
  double loss = GetParam();
  SystemOptions sys;
  sys.lan.loss_probability = loss;
  EthernetSpeakerSystem system(sys);
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  rb.packet_frames = 800;  // 10 packets/s: enough samples for the rate check.
  Channel* channel = *system.CreateChannel("music", rb);
  SpeakerOptions so;
  so.decode_speed_factor = 0.05;
  EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  opts.total_frames = 8000 * 10;
  (void)*system.StartPlayer(channel, std::make_unique<SineGenerator>(440.0),
                            opts);
  system.RunUntil(Seconds(20));

  const RebroadcasterStats& sent = channel->rebroadcaster->stats();
  const SpeakerStats& recv = speaker->stats();
  // Every data packet the producer sent was received or lost in the
  // network; every received one was played or dropped for a counted
  // reason. (No jitter, so nothing is late; buffers are ample.)
  uint64_t network_lost = sent.data_packets - recv.data_packets;
  EXPECT_EQ(recv.data_packets,
            recv.chunks_played + recv.waiting_drops + recv.late_drops +
                recv.overflow_drops + recv.duplicate_drops);
  if (loss == 0.0) {
    EXPECT_EQ(network_lost, 0u);
  } else {
    double loss_rate = static_cast<double>(network_lost) /
                       static_cast<double>(sent.data_packets);
    EXPECT_NEAR(loss_rate, loss, 0.12);
  }
}

INSTANTIATE_TEST_SUITE_P(LossSweep, PipelineConservation,
                         ::testing::Values(0.0, 0.02, 0.1, 0.25));

// ----------------------------------------------- recorder gap accounting --

TEST(InvariantTest, RebroadcasterSequenceNumbersAreDense) {
  // Sequence numbers must be consecutive on the wire — the speaker's
  // duplicate/gap logic and the recorder's silence fill both rely on it.
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  auto listener = system.lan()->CreateNic();
  ASSERT_TRUE(listener->JoinGroup(channel->group).ok());
  std::vector<uint32_t> seqs;
  listener->SetReceiveHandler([&](const Datagram& d) {
    Result<ParsedPacket> parsed = ParsePacket(d.payload);
    if (parsed.ok()) {
      if (const auto* data = std::get_if<DataPacket>(&parsed->packet)) {
        seqs.push_back(data->seq);
      }
    }
  });
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  (void)*system.StartPlayer(channel, std::make_unique<SineGenerator>(440.0),
                            opts);
  system.RunUntil(Seconds(10));
  ASSERT_GT(seqs.size(), 10u);
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<uint32_t>(i));
  }
}

TEST(InvariantTest, DataDeadlinesAdvanceByExactlyTheAudioDuration) {
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  rb.packet_frames = 4096;
  Channel* channel = *system.CreateChannel("music", rb);
  auto listener = system.lan()->CreateNic();
  ASSERT_TRUE(listener->JoinGroup(channel->group).ok());
  std::vector<SimTime> deadlines;
  listener->SetReceiveHandler([&](const Datagram& d) {
    Result<ParsedPacket> parsed = ParsePacket(d.payload);
    if (parsed.ok()) {
      if (const auto* data = std::get_if<DataPacket>(&parsed->packet)) {
        deadlines.push_back(data->play_deadline);
      }
    }
  });
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(1),
                            opts);
  system.RunUntil(Seconds(5));
  ASSERT_GT(deadlines.size(), 10u);
  SimDuration expected = FramesToDuration(4096, 44100);
  for (size_t i = 1; i < deadlines.size(); ++i) {
    EXPECT_EQ(deadlines[i] - deadlines[i - 1], expected) << "packet " << i;
  }
}

}  // namespace
}  // namespace espk
