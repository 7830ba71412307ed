// Tests for the time-shifting recorder (§2.1/§3.3).
#include <gtest/gtest.h>

#include <cstdio>

#include "src/audio/analysis.h"
#include "src/core/system.h"
#include "src/speaker/recorder.h"

namespace espk {
namespace {

struct RecorderRig {
  explicit RecorderRig(SystemOptions sys = {}) : system(sys) {
    RebroadcasterOptions rb;
    rb.codec_override = CodecId::kRaw;  // Bit-exact capture for comparison.
    channel = *system.CreateChannel("program", rb);
    nic = system.lan()->CreateNic();
    recorder = std::make_unique<StreamRecorder>(system.sim(), nic.get());
  }

  EthernetSpeakerSystem system;
  Channel* channel;
  std::unique_ptr<SimNic> nic;
  std::unique_ptr<StreamRecorder> recorder;
};

TEST(RecorderTest, CapturesTheProgramFaithfully) {
  RecorderRig rig;
  ASSERT_TRUE(rig.recorder->StartRecording(rig.channel->group).ok());
  PlayerAppOptions opts;
  opts.config = AudioConfig{8000, 1, AudioEncoding::kLinearS16};
  opts.chunk_frames = 800;
  opts.total_frames = 8000 * 3;
  (void)*rig.system.StartPlayer(rig.channel,
                                std::make_unique<SineGenerator>(440.0), opts);
  rig.system.RunUntil(Seconds(6));

  ASSERT_TRUE(rig.recorder->ready());
  PcmBuffer take = rig.recorder->Assemble();
  EXPECT_EQ(take.sample_rate, 8000);
  EXPECT_EQ(take.channels, 1);
  // ~3 s captured (packetization may trim the tail fraction of a packet).
  EXPECT_NEAR(static_cast<double>(take.frames()), 3.0 * 8000.0, 4200.0);
  // Content check against a reference tone.
  SineGenerator ref(440.0);
  std::vector<float> reference;
  ref.Generate(take.frames(), 1, 8000, &reference);
  AlignmentResult alignment = FindAlignment(reference, take.samples, 8000);
  EXPECT_GT(alignment.correlation, 0.95);
  EXPECT_EQ(rig.recorder->stats().gaps_filled, 0u);
}

TEST(RecorderTest, LostPacketsBecomeSilenceNotTimeCompression) {
  SystemOptions sys;
  sys.lan.loss_probability = 0.2;
  RecorderRig rig(sys);
  ASSERT_TRUE(rig.recorder->StartRecording(rig.channel->group).ok());
  PlayerAppOptions opts;
  opts.config = AudioConfig{8000, 1, AudioEncoding::kLinearS16};
  opts.chunk_frames = 800;
  opts.total_frames = 8000 * 5;
  (void)*rig.system.StartPlayer(rig.channel,
                                std::make_unique<SineGenerator>(440.0), opts);
  rig.system.RunUntil(Seconds(9));
  PcmBuffer take = rig.recorder->Assemble();
  // Gaps were filled: the take's length reflects stream time, not just
  // the surviving packets.
  EXPECT_GT(rig.recorder->stats().gaps_filled, 0u);
  double expected_frames =
      static_cast<double>(rig.recorder->stats().frames_recorded);
  EXPECT_NEAR(static_cast<double>(take.frames()), expected_frames, 1.0);
  EXPECT_GT(take.frames(), 3 * 8000);
}

TEST(RecorderTest, StartStopLifecycle) {
  RecorderRig rig;
  EXPECT_FALSE(rig.recorder->StopRecording().ok());  // Not started.
  ASSERT_TRUE(rig.recorder->StartRecording(rig.channel->group).ok());
  EXPECT_FALSE(rig.recorder->StartRecording(rig.channel->group).ok());
  ASSERT_TRUE(rig.recorder->StopRecording().ok());
  EXPECT_FALSE(rig.recorder->recording());
}

TEST(RecorderTest, StopKeepsTheTake) {
  RecorderRig rig;
  ASSERT_TRUE(rig.recorder->StartRecording(rig.channel->group).ok());
  PlayerAppOptions opts;
  opts.config = AudioConfig{8000, 1, AudioEncoding::kLinearS16};
  opts.chunk_frames = 800;
  (void)*rig.system.StartPlayer(rig.channel,
                                std::make_unique<SineGenerator>(440.0), opts);
  rig.system.RunUntil(Seconds(3));
  uint64_t captured = rig.recorder->stats().chunks_recorded;
  ASSERT_GT(captured, 0u);
  ASSERT_TRUE(rig.recorder->StopRecording().ok());
  rig.system.RunUntil(Seconds(6));
  // Nothing further captured after stop; the take is intact.
  EXPECT_EQ(rig.recorder->stats().chunks_recorded, captured);
  EXPECT_GT(rig.recorder->Assemble().frames(), 0);
}

TEST(RecorderTest, ExportWavRoundTrip) {
  RecorderRig rig;
  ASSERT_TRUE(rig.recorder->StartRecording(rig.channel->group).ok());
  PlayerAppOptions opts;
  opts.config = AudioConfig{8000, 1, AudioEncoding::kLinearS16};
  opts.chunk_frames = 800;
  (void)*rig.system.StartPlayer(rig.channel,
                                std::make_unique<SineGenerator>(440.0), opts);
  rig.system.RunUntil(Seconds(3));
  std::string path = ::testing::TempDir() + "/espk_recorder_test.wav";
  ASSERT_TRUE(rig.recorder->ExportWav(path).ok());
  Result<PcmBuffer> back = ReadWavFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sample_rate, 8000);
  EXPECT_GT(back->frames(), 8000);
  std::remove(path.c_str());
}

// A recorder fed hand-built packets: one control packet, then one
// kFrames-frame raw data packet per seq, in the given order.
struct HandFedRecorder {
  static constexpr int64_t kFrames = 80;

  explicit HandFedRecorder(std::initializer_list<uint32_t> seqs)
      : segment(&sim, SegmentConfig{}),
        producer(segment.CreateNic()),
        nic(segment.CreateNic()),
        recorder(&sim, nic.get()) {
    EXPECT_TRUE(recorder.StartRecording(kFirstChannelGroup).ok());
    const AudioConfig config{8000, 1, AudioEncoding::kLinearS16};
    ControlPacket control;
    control.stream_id = 1;
    control.control_seq = 1;
    control.config = config;
    control.codec = CodecId::kRaw;
    EXPECT_TRUE(
        producer->SendMulticast(kFirstChannelGroup, SerializePacket(control))
            .ok());
    for (uint32_t seq : seqs) {
      DataPacket data;
      data.stream_id = 1;
      data.seq = seq;
      data.frame_count = kFrames;
      data.payload = SineGenerator(440.0).GenerateBytes(kFrames, config);
      EXPECT_TRUE(
          producer->SendMulticast(kFirstChannelGroup, SerializePacket(data))
              .ok());
    }
    sim.Run();
  }

  Simulation sim;
  EthernetSegment segment;
  std::unique_ptr<SimNic> producer;
  std::unique_ptr<SimNic> nic;
  StreamRecorder recorder;
};

TEST(RecorderTest, FarAheadSeqPadsABoundedGap) {
  // One CRC-valid packet 2^31 seqs ahead must not make Assemble() pad 2^31
  // packets of silence: the fill per gap is capped at 1000 packets.
  HandFedRecorder rig({0u, 1u << 31});
  ASSERT_EQ(rig.recorder.stats().chunks_recorded, 2u);

  PcmBuffer take = rig.recorder.Assemble();
  EXPECT_EQ(rig.recorder.stats().gaps_filled, 1000u);
  EXPECT_EQ(take.frames(), (2 + 1000) * HandFedRecorder::kFrames);
  EXPECT_EQ(take.frames(), rig.recorder.stats().frames_recorded);
}

TEST(RecorderTest, TakeAcrossSeqWrapStaysInOrder) {
  // Four contiguous seqs straddling 2^32 are four packets of audio, not a
  // post-wrap pair sorted first and a bounded gap before the pre-wrap pair.
  HandFedRecorder rig({0xFFFFFFFEu, 0xFFFFFFFFu, 0u, 1u});
  ASSERT_EQ(rig.recorder.stats().chunks_recorded, 4u);

  PcmBuffer take = rig.recorder.Assemble();
  EXPECT_EQ(rig.recorder.stats().gaps_filled, 0u);
  EXPECT_EQ(take.frames(), 4 * HandFedRecorder::kFrames);
  EXPECT_EQ(take.frames(), rig.recorder.stats().frames_recorded);
}

TEST(RecorderTest, ExportBeforeAnythingCapturedFails) {
  RecorderRig rig;
  EXPECT_FALSE(rig.recorder->ExportWav("/tmp/espk_nothing.wav").ok());
}

}  // namespace
}  // namespace espk
