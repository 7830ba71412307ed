// Unit tests for the Ethernet Speaker internals: the output recorder, the
// speaker state machine driven by hand-crafted datagrams (no producer
// needed), and the §5.2 auto-volume controller.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/audio/analysis.h"
#include "src/audio/generator.h"
#include "src/audio/sample_convert.h"
#include "src/lan/segment.h"
#include "src/speaker/auto_volume.h"
#include "src/speaker/playback.h"
#include "src/speaker/speaker.h"
#include "src/speaker/speaker_zone.h"

namespace espk {
namespace {

// --------------------------------------------------------- OutputRecorder --

TEST(OutputRecorderTest, RenderPlacesSegmentsAtTheirTimes) {
  OutputRecorder rec(8000, 1);
  rec.Play(Milliseconds(100), {0.5f, 0.5f}, 1.0f);
  // Render 200 ms starting at t=0: samples land at frame 800.
  std::vector<float> out = rec.Render(0, Milliseconds(200));
  ASSERT_EQ(out.size(), 1600u);
  EXPECT_EQ(out[799], 0.0f);
  EXPECT_EQ(out[800], 0.5f);
  EXPECT_EQ(out[801], 0.5f);
  EXPECT_EQ(out[802], 0.0f);
}

TEST(OutputRecorderTest, GainAppliedAtPlayTime) {
  OutputRecorder rec(8000, 1);
  rec.Play(0, {1.0f}, 0.25f);
  std::vector<float> out = rec.Render(0, Milliseconds(1));
  EXPECT_FLOAT_EQ(out[0], 0.25f);
}

// The recorder keeps samples before gain and applies it on read; what it
// reads back must be the exact float product an in-place multiply gives.
TEST(OutputRecorderTest, GainOnReadMatchesGainInPlaceBitForBit) {
  constexpr float kGain = 0.3f;
  std::vector<float> samples(800);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = std::sin(0.37f * static_cast<float>(i)) * 0.9f;
  }
  std::vector<float> scaled = samples;
  for (float& s : scaled) {
    s *= kGain;
  }
  OutputRecorder rec(8000, 1);
  rec.Play(0, samples, kGain);

  const std::vector<float> out = rec.Render(0, Milliseconds(100));
  ASSERT_EQ(out.size(), scaled.size());
  EXPECT_EQ(std::memcmp(out.data(), scaled.data(),
                        scaled.size() * sizeof(float)),
            0);

  double acc = 0.0;
  for (float s : scaled) {
    acc += static_cast<double>(s) * s;
  }
  EXPECT_EQ(rec.RecentRms(Milliseconds(100), Milliseconds(100)),
            std::sqrt(acc / static_cast<double>(scaled.size())));
}

TEST(OutputRecorderTest, CountGapsFindsDropouts) {
  OutputRecorder rec(8000, 1);
  // 100 ms of audio, 50 ms gap, 100 ms of audio.
  std::vector<float> chunk(800, 0.1f);
  rec.Play(0, chunk, 1.0f);
  rec.Play(Milliseconds(150), chunk, 1.0f);
  rec.Play(Milliseconds(250), chunk, 1.0f);  // Back-to-back: no gap.
  EXPECT_EQ(rec.CountGaps(Milliseconds(5)), 1);
  EXPECT_EQ(rec.TotalGapTime(), Milliseconds(50));
}

TEST(OutputRecorderTest, RecentRmsSeesOnlyTheWindow) {
  OutputRecorder rec(8000, 1);
  rec.Play(0, std::vector<float>(800, 0.8f), 1.0f);                  // Loud.
  rec.Play(Milliseconds(500), std::vector<float>(800, 0.01f), 1.0f); // Quiet.
  double recent = rec.RecentRms(Milliseconds(650), Milliseconds(100));
  EXPECT_NEAR(recent, 0.01, 0.002);
}

TEST(OutputRecorderTest, BoundariesOfRenderWindow) {
  OutputRecorder rec(8000, 2);
  rec.Play(Milliseconds(10), {1.0f, -1.0f, 0.5f, -0.5f}, 1.0f);
  // Window entirely before the segment: silence.
  std::vector<float> before = rec.Render(0, Milliseconds(5));
  EXPECT_EQ(Peak(before), 0.0);
  // Window entirely after: silence.
  std::vector<float> after = rec.Render(Milliseconds(100), Milliseconds(5));
  EXPECT_EQ(Peak(after), 0.0);
}

TEST(OutputRecorderTest, EmptyStateAccessors) {
  OutputRecorder rec(44100, 2);
  EXPECT_EQ(rec.first_start(), -1);
  EXPECT_EQ(rec.last_end(), -1);
  EXPECT_EQ(rec.CountGaps(0), 0);
  EXPECT_EQ(rec.RecentRms(Seconds(1), Seconds(1)), 0.0);
}

// ------------------------------------------- Speaker fed crafted packets --

class SpeakerHarness {
 public:
  explicit SpeakerHarness(SpeakerOptions options = {})
      : segment_(&sim_, SegmentConfig{}),
        nic_(segment_.CreateNic()),
        speaker_(&sim_, nic_.get(), std::move(options)) {
    (void)speaker_.Tune(kFirstChannelGroup);
  }

  void Deliver(const Packet& packet, const Bytes& auth = {}) {
    DeliverTo(kFirstChannelGroup, packet, auth);
  }

  void DeliverTo(GroupId group, const Packet& packet, const Bytes& auth = {}) {
    Datagram d;
    d.group = group;
    d.payload = SerializePacket(packet, auth);
    speaker_.HandleDatagram(d);
  }

  ControlPacket MakeControl(SimTime producer_clock, uint32_t stream_id = 1) {
    ControlPacket control;
    control.stream_id = stream_id;
    control.control_seq = 1;
    control.producer_clock = producer_clock;
    control.config = config_;
    control.codec = CodecId::kRaw;
    return control;
  }

  DataPacket MakeData(uint32_t seq, SimTime deadline, int64_t frames,
                      uint32_t stream_id = 1) {
    DataPacket data;
    data.stream_id = stream_id;
    data.seq = seq;
    data.play_deadline = deadline;
    data.frame_count = static_cast<uint32_t>(frames);
    SineGenerator gen(440.0);
    data.payload = gen.GenerateBytes(frames, config_);
    return data;
  }

  Simulation sim_;
  EthernetSegment segment_;
  std::unique_ptr<SimNic> nic_;
  AudioConfig config_{8000, 1, AudioEncoding::kLinearS16};
  EthernetSpeaker speaker_;
};

TEST(SpeakerTest, DataBeforeControlIsDropped) {
  SpeakerHarness h;
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  EXPECT_EQ(h.speaker_.stats().waiting_drops, 1u);
  EXPECT_FALSE(h.speaker_.ready());
}

TEST(SpeakerTest, ControlThenDataPlaysAtDeadline) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(/*producer_clock=*/0));
  ASSERT_TRUE(h.speaker_.ready());
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.sim_.RunUntil(Milliseconds(99));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);  // Sleeping until time.
  h.sim_.RunUntil(Milliseconds(101));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 1u);
  EXPECT_EQ(h.speaker_.output()->first_start(), Milliseconds(100));
}

TEST(SpeakerTest, ClockOffsetMapsProducerDeadlines) {
  // The speaker's clock reads 5 s when the producer's reads 0: the offset
  // is learned from the control packet and applied to every deadline.
  SpeakerHarness h;
  h.sim_.RunUntil(Seconds(5));
  h.Deliver(h.MakeControl(/*producer_clock=*/0));
  h.Deliver(h.MakeData(0, /*deadline=*/Milliseconds(100), 800));
  h.sim_.RunUntil(Seconds(5) + Milliseconds(150));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 1u);
  EXPECT_EQ(h.speaker_.output()->first_start(),
            Seconds(5) + Milliseconds(100));
}

TEST(SpeakerTest, LateWithinEpsilonPlaysImmediately) {
  SpeakerOptions options;
  options.sync_epsilon = Milliseconds(20);
  options.decode_speed_factor = 0.0;
  SpeakerHarness h(options);
  h.Deliver(h.MakeControl(0));
  h.sim_.RunUntil(Milliseconds(110));  // 10 ms past the deadline.
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 1u);
  EXPECT_EQ(h.speaker_.stats().late_drops, 0u);
  EXPECT_GT(h.speaker_.stats().total_lateness_ns, 0);
}

TEST(SpeakerTest, LateBeyondEpsilonIsDiscarded) {
  SpeakerOptions options;
  options.sync_epsilon = Milliseconds(20);
  options.decode_speed_factor = 0.0;
  SpeakerHarness h(options);
  h.Deliver(h.MakeControl(0));
  h.sim_.RunUntil(Milliseconds(200));  // 100 ms past the deadline.
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);
  EXPECT_EQ(h.speaker_.stats().late_drops, 1u);
}

TEST(SpeakerTest, DuplicateSequenceDropped) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  h.Deliver(h.MakeData(5, Milliseconds(100), 800));
  h.Deliver(h.MakeData(5, Milliseconds(100), 800));  // Replay.
  EXPECT_EQ(h.speaker_.stats().duplicate_drops, 1u);
}

TEST(SpeakerTest, ReplayAfterSequenceWrapDropped) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  // A stream that started near 2^32 and has wrapped past it.
  for (uint32_t seq = 0xFFFFFFFDu; seq != 3; ++seq) {
    h.Deliver(h.MakeData(seq, Milliseconds(100), 80));
  }
  EXPECT_EQ(h.speaker_.stats().duplicate_drops, 0u);
  h.Deliver(h.MakeData(1, Milliseconds(100), 80));  // Replay.
  h.Deliver(h.MakeData(0xFFFFFFFEu, Milliseconds(100), 80));  // Replay.
  EXPECT_EQ(h.speaker_.stats().duplicate_drops, 2u);
  h.sim_.Run();
  EXPECT_EQ(h.speaker_.stats().chunks_played, 6u);
}

TEST(SpeakerTest, CorruptDatagramCountedNotCrashed) {
  SpeakerHarness h;
  Datagram d;
  d.group = kFirstChannelGroup;
  d.payload = {1, 2, 3, 4, 5};
  h.speaker_.HandleDatagram(d);
  EXPECT_EQ(h.speaker_.stats().bad_packets, 1u);
}

TEST(SpeakerTest, JitterBufferOverflowDropsExcess) {
  SpeakerOptions options;
  options.jitter_buffer_bytes = 16000;  // ~4000 mono float samples.
  options.decode_speed_factor = 0.0;
  SpeakerHarness h(options);
  h.Deliver(h.MakeControl(0));
  // Flood with future-deadline chunks: 800 frames = 3200 bytes decoded.
  for (uint32_t i = 0; i < 20; ++i) {
    h.Deliver(h.MakeData(i, Seconds(10) + Milliseconds(100 * i), 800));
  }
  EXPECT_GT(h.speaker_.stats().overflow_drops, 0u);
  EXPECT_LE(h.speaker_.stats().data_packets -
                h.speaker_.stats().overflow_drops,
            5u + 1u);
}

TEST(SpeakerTest, DecodeErrorCounted) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  DataPacket bad = h.MakeData(0, Milliseconds(100), 800);
  // Truncate by one byte: no longer a whole frame count (raw codec).
  bad.payload = bad.payload.Subslice(0, bad.payload.size() - 1);
  h.Deliver(bad);
  // The payload rides the pipeline as a slice; the decode (and its failure)
  // happens when the serialized decode stage completes.
  h.sim_.Run();
  EXPECT_EQ(h.speaker_.stats().decode_errors, 1u);
}

TEST(SpeakerTest, RetuneResetsChannelState) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  ASSERT_TRUE(h.speaker_.ready());
  ASSERT_TRUE(h.speaker_.Tune(kFirstChannelGroup + 1).ok());
  EXPECT_FALSE(h.speaker_.ready());
  EXPECT_FALSE(h.nic_->IsJoined(kFirstChannelGroup));
  EXPECT_TRUE(h.nic_->IsJoined(kFirstChannelGroup + 1));
}

TEST(SpeakerTest, UntuneWithoutTuneFails) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto nic = segment.CreateNic();
  EthernetSpeaker speaker(&sim, nic.get(), SpeakerOptions{});
  EXPECT_FALSE(speaker.Untune().ok());
}

TEST(SpeakerTest, AuthVerifierGatesEverything) {
  SpeakerOptions options;
  options.auth_verifier = [](const ParsedPacket&) { return false; };
  SpeakerHarness h(options);
  h.Deliver(h.MakeControl(0));
  EXPECT_FALSE(h.speaker_.ready());
  EXPECT_EQ(h.speaker_.stats().auth_rejected, 1u);
}

TEST(SpeakerTest, ConfigChangeMidStreamSwitchesDecoder) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  h.Deliver(h.MakeData(0, Milliseconds(50), 800));
  h.sim_.RunUntil(Milliseconds(60));
  // New control packet with a different config and bumped control_seq.
  ControlPacket control = h.MakeControl(h.sim_.now());
  control.control_seq = 2;
  control.config = AudioConfig{16000, 1, AudioEncoding::kLinearS16};
  h.Deliver(control);
  ASSERT_TRUE(h.speaker_.ready());
  EXPECT_EQ(h.speaker_.config()->sample_rate, 16000);
  // Output epoch restarted.
  EXPECT_EQ(h.speaker_.output()->segments().size(), 0u);
}

// ------------------------------------------- Multi-stream subscriptions --

TEST(SpeakerTest, SubscribeTwiceFails) {
  SpeakerHarness h;  // The harness ctor already tuned to kFirstChannelGroup.
  Status s = h.speaker_.Subscribe(kFirstChannelGroup);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(SpeakerTest, UnsubscribeWithoutSubscriptionFails) {
  SpeakerHarness h;
  Status s = h.speaker_.Unsubscribe(kFirstChannelGroup + 9);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(SpeakerTest, ConcurrentSubscriptionsKeepStreamsSeparate) {
  SpeakerHarness h;
  const GroupId g2 = kFirstChannelGroup + 1;
  ASSERT_TRUE(h.speaker_.Subscribe(g2).ok());
  EXPECT_TRUE(h.nic_->IsJoined(kFirstChannelGroup));
  EXPECT_TRUE(h.nic_->IsJoined(g2));
  // Two producers, one per group, each with its own stream id.
  h.Deliver(h.MakeControl(0));
  h.DeliverTo(g2, h.MakeControl(0, /*stream_id=*/2));
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.DeliverTo(g2, h.MakeData(0, Milliseconds(100), 800, /*stream_id=*/2));
  h.sim_.RunUntil(Milliseconds(200));
  // Aggregate stats sum across sessions; per-session stats stay separate.
  EXPECT_EQ(h.speaker_.stats().chunks_played, 2u);
  ASSERT_NE(h.speaker_.session(kFirstChannelGroup), nullptr);
  ASSERT_NE(h.speaker_.session(g2), nullptr);
  EXPECT_EQ(h.speaker_.session(kFirstChannelGroup)->stats().chunks_played,
            1u);
  EXPECT_EQ(h.speaker_.session(g2)->stats().chunks_played, 1u);
  // The legacy single-stream accessors keep exposing the first subscription.
  EXPECT_EQ(h.speaker_.tuned_group(), kFirstChannelGroup);
  EXPECT_EQ(h.speaker_.output(),
            h.speaker_.session(kFirstChannelGroup)->output());
}

TEST(SpeakerTest, RenderMixSumsConcurrentStreams) {
  SpeakerHarness h;
  const GroupId g2 = kFirstChannelGroup + 1;
  ASSERT_TRUE(h.speaker_.Subscribe(g2).ok());
  h.Deliver(h.MakeControl(0));
  h.DeliverTo(g2, h.MakeControl(0, /*stream_id=*/2));
  // Identical sine chunks with identical deadlines: the mix is exactly 2x.
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.DeliverTo(g2, h.MakeData(0, Milliseconds(100), 800, /*stream_id=*/2));
  h.sim_.RunUntil(Milliseconds(250));
  std::vector<float> solo = h.speaker_.session(kFirstChannelGroup)
                                ->output()
                                ->Render(Milliseconds(100), Milliseconds(100));
  std::vector<float> mix =
      h.speaker_.RenderMix(Milliseconds(100), Milliseconds(100));
  ASSERT_EQ(mix.size(), solo.size());
  ASSERT_GT(Peak(solo), 0.0);
  EXPECT_NEAR(Peak(mix), 2.0 * Peak(solo), 1e-4);
}

TEST(SpeakerTest, UnsubscribeMidFlightDropsPipelineObligations) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));  // Decode in flight.
  ASSERT_TRUE(h.speaker_.Unsubscribe(kFirstChannelGroup).ok());
  EXPECT_TRUE(h.speaker_.subscriptions().empty());
  h.sim_.Run();  // The orphaned decode completes as a no-op.
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);
  EXPECT_EQ(h.speaker_.queued_pcm_bytes(), 0u);
}

TEST(SpeakerTest, ResubscribeStartsAFreshSession) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  ASSERT_TRUE(h.speaker_.Unsubscribe(kFirstChannelGroup).ok());
  ASSERT_TRUE(h.speaker_.Subscribe(kFirstChannelGroup).ok());
  // The reincarnated session has not seen a control packet, and the stale
  // in-flight decode belongs to the dead epoch.
  EXPECT_FALSE(h.speaker_.ready());
  h.sim_.Run();
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);
}

TEST(SpeakerTest, TuneDropsEveryCurrentSubscription) {
  SpeakerHarness h;
  ASSERT_TRUE(h.speaker_.Subscribe(kFirstChannelGroup + 1).ok());
  ASSERT_TRUE(h.speaker_.Tune(kFirstChannelGroup + 2).ok());
  ASSERT_EQ(h.speaker_.subscriptions().size(), 1u);
  EXPECT_EQ(h.speaker_.subscriptions()[0], kFirstChannelGroup + 2);
  EXPECT_FALSE(h.nic_->IsJoined(kFirstChannelGroup));
  EXPECT_FALSE(h.nic_->IsJoined(kFirstChannelGroup + 1));
  EXPECT_TRUE(h.nic_->IsJoined(kFirstChannelGroup + 2));
}

TEST(SpeakerTest, TrafficOnUnsubscribedGroupIsIgnored) {
  SpeakerHarness h;
  const GroupId stray = kFirstChannelGroup + 7;
  h.DeliverTo(stray, h.MakeControl(0, /*stream_id=*/9));
  EXPECT_FALSE(h.speaker_.ready());
  h.DeliverTo(stray, h.MakeData(0, Milliseconds(100), 800, /*stream_id=*/9));
  h.sim_.Run();
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);
}

// ------------------------------------------- Zone members share decodes --

// A SpeakerZone fed batches by hand: every member subscribed to one group
// on its own NIC of a bare segment, each admitted at the batch instant.
class ZoneHarness {
 public:
  explicit ZoneHarness(int members) : segment_(&sim_, SegmentConfig{}) {
    for (int i = 0; i < members; ++i) {
      nics_.push_back(segment_.CreateNic());
      SpeakerOptions options;
      options.name = "es" + std::to_string(i);
      speakers_.push_back(std::make_unique<EthernetSpeaker>(
          &sim_, nics_.back().get(), options));
      (void)speakers_.back()->Subscribe(kFirstChannelGroup);
      zone_.AddSpeaker(nics_.back().get(), speakers_.back().get());
    }
  }

  void Deliver(const Packet& packet, std::vector<int> members) {
    Datagram d;
    d.group = kFirstChannelGroup;
    d.payload = SerializePacket(packet, {});
    std::vector<ZoneDeliveryEntry> entries;
    for (int member : members) {
      entries.push_back(ZoneDeliveryEntry{member, sim_.now()});
    }
    zone_.DeliverBatch(d, std::move(entries));
  }

  ControlPacket MakeControl(const AudioConfig& config, uint8_t quality) {
    ControlPacket control;
    control.stream_id = 1;
    control.control_seq = 1;
    control.producer_clock = sim_.now();
    control.config = config;
    control.codec = CodecId::kRaw;
    control.quality = quality;
    return control;
  }

  // The one segment a member played, or null when it played none.
  const OutputRecorder::Segment* Played(int member) {
    const OutputRecorder* out = speakers_[static_cast<size_t>(member)]->output();
    return out != nullptr && out->segments().size() == 1
               ? &out->segments().front()
               : nullptr;
  }

  Simulation sim_;
  EthernetSegment segment_;
  SpeakerZone zone_{&sim_};
  std::vector<std::unique_ptr<SimNic>> nics_;
  std::vector<std::unique_ptr<EthernetSpeaker>> speakers_;
};

// Members whose sessions decode with the same parameters play one block;
// a member that saw a different config or quality decodes on its own, with
// its own decoder's result.
TEST(SpeakerZoneTest, MembersWithDifferentDecodersDecodeSeparately) {
  const AudioConfig s16{8000, 1, AudioEncoding::kLinearS16};
  const AudioConfig u8{8000, 1, AudioEncoding::kLinearU8};
  ZoneHarness h(4);
  h.Deliver(h.MakeControl(s16, 5), {0, 1});
  h.Deliver(h.MakeControl(s16, 7), {2});
  h.Deliver(h.MakeControl(u8, 7), {3});

  DataPacket data;
  data.stream_id = 1;
  data.seq = 0;
  data.play_deadline = Milliseconds(100);
  data.frame_count = 400;
  data.payload = SineGenerator(440.0).GenerateBytes(400, s16);
  h.Deliver(data, {0, 1, 2, 3});
  h.sim_.Run();

  // Admission order is the decode order: member 2 differs from the decode
  // before it only in quality, member 3 only in config.
  const OutputRecorder::Segment* same[] = {h.Played(0), h.Played(1)};
  const OutputRecorder::Segment* other_quality = h.Played(2);
  const OutputRecorder::Segment* other_config = h.Played(3);
  ASSERT_NE(same[0], nullptr);
  ASSERT_NE(same[1], nullptr);
  ASSERT_NE(other_config, nullptr);
  ASSERT_NE(other_quality, nullptr);
  EXPECT_EQ(same[0]->block, same[1]->block);
  EXPECT_NE(other_config->block, same[0]->block);
  EXPECT_NE(other_quality->block, same[0]->block);
  EXPECT_NE(other_quality->block, other_config->block);

  // Each block is what the member's own decoder makes of the payload.
  for (auto [segment, config] :
       {std::pair{same[0], s16}, std::pair{other_config, u8},
        std::pair{other_quality, s16}}) {
    auto decoder = CreateDecoder(CodecId::kRaw, config, 5);
    ASSERT_TRUE(decoder.ok());
    Result<std::vector<float>> expected = (*decoder)->DecodePacket(data.payload);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*segment->block, *expected);
  }
  EXPECT_NE(*other_config->block, *same[0]->block);
}

// Decoder parameters that alternate A, B, A within one early batch give the
// play group a block per decode, and each member's block index must point
// at the block its own decoder made: both A members play A's PCM, the B
// member B's.
TEST(SpeakerZoneTest, InterleavedDecodersEachPlayTheirOwnBlock) {
  const AudioConfig s16{8000, 1, AudioEncoding::kLinearS16};
  const AudioConfig u8{8000, 1, AudioEncoding::kLinearU8};
  ZoneHarness h(3);
  h.Deliver(h.MakeControl(s16, 5), {0, 2});
  h.Deliver(h.MakeControl(u8, 5), {1});

  DataPacket data;
  data.stream_id = 1;
  data.seq = 0;
  data.play_deadline = Milliseconds(100);
  data.frame_count = 400;
  data.payload = SineGenerator(440.0).GenerateBytes(400, s16);
  h.Deliver(data, {0, 1, 2});
  h.sim_.Run();

  const OutputRecorder::Segment* played[] = {h.Played(0), h.Played(1),
                                             h.Played(2)};
  for (const OutputRecorder::Segment* segment : played) {
    ASSERT_NE(segment, nullptr);
    EXPECT_EQ(segment->start, Milliseconds(100));  // Played from the group.
  }
  const AudioConfig configs[] = {s16, u8, s16};
  for (size_t i = 0; i < 3; ++i) {
    auto decoder = CreateDecoder(CodecId::kRaw, configs[i], 5);
    ASSERT_TRUE(decoder.ok());
    Result<std::vector<float>> expected = (*decoder)->DecodePacket(data.payload);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*played[i]->block, *expected) << "member " << i;
  }
  EXPECT_EQ(*played[0]->block, *played[2]->block);
  EXPECT_NE(*played[0]->block, *played[1]->block);
}

// A failed decode is never shared: every member that receives a corrupt
// payload counts its own decode error, and none plays anything.
TEST(SpeakerZoneTest, CorruptPayloadCountsAnErrorOnEveryMember) {
  const AudioConfig s16{8000, 1, AudioEncoding::kLinearS16};
  ZoneHarness h(3);
  h.Deliver(h.MakeControl(s16, 10), {0, 1, 2});
  DataPacket bad;
  bad.stream_id = 1;
  bad.seq = 0;
  bad.play_deadline = Milliseconds(100);
  bad.frame_count = 400;
  // One byte short of whole 16-bit samples: the raw decoder rejects it.
  bad.payload = Bytes(799, 0x11);
  h.Deliver(bad, {0, 1, 2});
  h.sim_.Run();
  for (int i = 0; i < 3; ++i) {
    const EthernetSpeaker& speaker = *h.speakers_[static_cast<size_t>(i)];
    EXPECT_EQ(speaker.stats().decode_errors, 1u) << "member " << i;
    EXPECT_EQ(speaker.stats().chunks_played, 0u) << "member " << i;
    EXPECT_EQ(speaker.queued_pcm_bytes(), 0u) << "member " << i;
  }
}

// ------------------------------------------------------------ AutoVolume --

class AutoVolumeHarness {
 public:
  AutoVolumeHarness() : h_() {
    h_.Deliver(h_.MakeControl(0));
  }

  // Feeds `seconds` of tone at constant source level, ticking playback.
  void PlayTone(double seconds, float amplitude) {
    auto frames = static_cast<int64_t>(seconds * 8000);
    int64_t done = 0;
    uint32_t seq = next_seq_;
    while (done < frames) {
      int64_t n = std::min<int64_t>(800, frames - done);
      DataPacket data;
      data.stream_id = 1;
      data.seq = seq++;
      data.play_deadline = h_.sim_.now() + Milliseconds(50) +
                           FramesToDuration(done, 8000);
      data.frame_count = static_cast<uint32_t>(n);
      SineGenerator gen(440.0, amplitude);
      data.payload = gen.GenerateBytes(n, h_.config_);
      h_.Deliver(data);
      done += n;
    }
    next_seq_ = seq;
    h_.sim_.RunFor(Seconds(static_cast<int64_t>(seconds)) +
                   Milliseconds(100));
  }

  SpeakerHarness h_;
  uint32_t next_seq_ = 0;
};

TEST(AutoVolumeTest, GainRisesWithAmbientNoise) {
  AutoVolumeHarness harness;
  double ambient_level = 0.01;
  AutoVolumeOptions options;
  options.mode = VolumeMode::kBackgroundMusic;
  AutoVolumeController controller(
      &harness.h_.speaker_, [&](SimTime) { return ambient_level; }, options);
  controller.Start();

  harness.PlayTone(4.0, 0.3f);
  float quiet_gain = harness.h_.speaker_.gain();

  ambient_level = 0.08;  // The room gets loud.
  harness.PlayTone(4.0, 0.3f);
  float loud_gain = harness.h_.speaker_.gain();

  EXPECT_GT(loud_gain, quiet_gain * 2.0f);
  EXPECT_GE(controller.history().size(), 8u);
}

TEST(AutoVolumeTest, AnnouncementModeIsLouderThanMusicMode) {
  auto run = [](VolumeMode mode) {
    AutoVolumeHarness harness;
    AutoVolumeOptions options;
    options.mode = mode;
    AutoVolumeController controller(
        &harness.h_.speaker_, [](SimTime) { return 0.02; }, options);
    controller.Start();
    harness.PlayTone(5.0, 0.3f);
    return harness.h_.speaker_.gain();
  };
  float music = run(VolumeMode::kBackgroundMusic);
  float announcement = run(VolumeMode::kAnnouncement);
  EXPECT_GT(announcement, music * 2.0f);
}

TEST(AutoVolumeTest, EqualizesSourcesMasteredAtDifferentLevels) {
  // §5.2: "audio segments recorded at different volume levels produce the
  // same sound levels".
  auto output_level_for_source = [](float amplitude) {
    AutoVolumeHarness harness;
    AutoVolumeOptions options;
    AutoVolumeController controller(
        &harness.h_.speaker_, [](SimTime) { return 0.02; }, options);
    controller.Start();
    harness.PlayTone(6.0, amplitude);
    // Acoustic level near the end of the run.
    return harness.h_.speaker_.output()->RecentRms(harness.h_.sim_.now(),
                                                   Milliseconds(500));
  };
  double quiet_master = output_level_for_source(0.1f);
  double loud_master = output_level_for_source(0.6f);
  ASSERT_GT(quiet_master, 0.0);
  EXPECT_NEAR(loud_master / quiet_master, 1.0, 0.25);
}

TEST(AutoVolumeTest, SilenceDoesNotSlewTheGain) {
  AutoVolumeHarness harness;
  AutoVolumeOptions options;
  AutoVolumeController controller(
      &harness.h_.speaker_, [](SimTime) { return 0.05; }, options);
  controller.Start();
  float initial = harness.h_.speaker_.gain();
  harness.h_.sim_.RunFor(Seconds(5));  // Nothing playing.
  EXPECT_FLOAT_EQ(harness.h_.speaker_.gain(), initial);
}

TEST(AutoVolumeTest, GainStaysWithinConfiguredBounds) {
  AutoVolumeHarness harness;
  AutoVolumeOptions options;
  options.max_gain = 2.0f;
  options.min_gain = 0.2f;
  AutoVolumeController controller(
      &harness.h_.speaker_, [](SimTime) { return 0.5; },  // Very loud room.
      options);
  controller.Start();
  harness.PlayTone(5.0, 0.05f);  // Very quiet source.
  EXPECT_LE(harness.h_.speaker_.gain(), 2.0f);
}

}  // namespace
}  // namespace espk
