// End-to-end tests of the full Ethernet Speaker pipeline: unmodified player
// application -> VAD slave -> kernel pump -> VAD master -> rebroadcaster
// (rate limit, selective compression, control packets) -> multicast LAN ->
// N Ethernet Speakers (sync engine, jitter buffer, playback).
#include <gtest/gtest.h>

#include "src/audio/analysis.h"
#include "src/core/system.h"

namespace espk {
namespace {

SpeakerOptions FastSpeaker(const std::string& name) {
  SpeakerOptions options;
  options.name = name;
  options.decode_speed_factor = 0.05;
  return options;
}

TEST(PipelineTest, OneProducerThreeSpeakersPlayTheSameAudio) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  EthernetSpeaker* s1 = *system.AddSpeaker(FastSpeaker("es1"), channel->group);
  EthernetSpeaker* s2 = *system.AddSpeaker(FastSpeaker("es2"), channel->group);
  EthernetSpeaker* s3 = *system.AddSpeaker(FastSpeaker("es3"), channel->group);

  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(1),
                               player_options)
                  .ok());
  system.RunUntil(Seconds(10));

  for (EthernetSpeaker* s : {s1, s2, s3}) {
    ASSERT_TRUE(s->ready()) << s->name();
    EXPECT_GT(s->stats().chunks_played, 50u) << s->name();
    EXPECT_EQ(s->stats().late_drops, 0u) << s->name();
    EXPECT_EQ(s->stats().bad_packets, 0u) << s->name();
    // Continuous playback: no audible gaps after the stream starts.
    EXPECT_EQ(s->output()->CountGaps(Milliseconds(5)), 0) << s->name();
  }
}

TEST(PipelineTest, SpeakersArePerfectlySynchronized) {
  // §3.2: with uniform multicast delivery, the wall-clock scheme keeps all
  // speakers sample-aligned.
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  (void)*system.AddSpeaker(FastSpeaker("es1"), channel->group);
  (void)*system.AddSpeaker(FastSpeaker("es2"), channel->group);
  (void)*system.AddSpeaker(FastSpeaker("es3"), channel->group);
  (void)*system.AddSpeaker(FastSpeaker("es4"), channel->group);

  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(2),
                               player_options)
                  .ok());
  system.RunUntil(Seconds(8));

  auto report = system.MeasureSync(Seconds(3), Seconds(1), Milliseconds(50));
  EXPECT_EQ(report.speaker_pairs, 6);
  EXPECT_EQ(report.max_skew_seconds, 0.0);
  EXPECT_GT(report.min_correlation, 0.99);
}

TEST(PipelineTest, LateJoinerStartsAfterNextControlPacket) {
  // §2.3: a speaker that tunes in mid-stream waits for a control packet,
  // then plays — no producer involvement.
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.control_interval = Seconds(1);
  Channel* channel = *system.CreateChannel("music", rb);
  (void)*system.AddSpeaker(FastSpeaker("early"), channel->group);
  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(3),
                               player_options)
                  .ok());
  system.RunUntil(Seconds(5));

  EthernetSpeaker* late =
      *system.AddSpeaker(FastSpeaker("late"), channel->group);
  EXPECT_FALSE(late->ready());
  system.RunUntil(Seconds(5) + Milliseconds(1100));
  EXPECT_TRUE(late->ready());  // Control packets come every second.
  EXPECT_GT(late->stats().waiting_drops, 0u);  // Data before control: dropped.

  system.RunUntil(Seconds(12));
  EXPECT_GT(late->stats().chunks_played, 20u);
  // Once playing, the late joiner is in sync with the early speaker.
  auto report = system.MeasureSync(Seconds(8), Seconds(1), Milliseconds(50));
  EXPECT_EQ(report.speaker_pairs, 1);
  EXPECT_EQ(report.max_skew_seconds, 0.0);
  EXPECT_GT(report.min_correlation, 0.99);
}

TEST(PipelineTest, PlayedAudioIsFaithfulToSource) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("tone");
  EthernetSpeaker* speaker =
      *system.AddSpeaker(FastSpeaker("es"), channel->group);
  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel, std::make_unique<SineGenerator>(440.0),
                               player_options)
                  .ok());
  system.RunUntil(Seconds(6));

  ASSERT_TRUE(speaker->ready());
  std::vector<float> played = speaker->output()->Render(Seconds(2), Seconds(2));
  // Compare against a reference 440 Hz tone (alignment-corrected).
  SineGenerator ref(440.0);
  std::vector<float> reference;
  ref.Generate(2 * 44100, 2, 44100, &reference);
  AlignmentResult alignment = FindAlignment(reference, played, 44100);
  EXPECT_GT(alignment.correlation, 0.98);
}

TEST(PipelineTest, SelectiveCompressionByBitrate) {
  // §2.2: CD-quality gets Vorbix; 64 kbps phone audio goes raw.
  EthernetSpeakerSystem system;
  Channel* cd_channel = *system.CreateChannel("music");
  Channel* phone_channel = *system.CreateChannel("announcements");

  PlayerAppOptions cd_opts;
  cd_opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(cd_channel,
                               std::make_unique<MusicLikeGenerator>(4), cd_opts)
                  .ok());
  PlayerAppOptions phone_opts;
  phone_opts.config = AudioConfig::PhoneQuality();
  phone_opts.chunk_frames = 800;
  ASSERT_TRUE(system
                  .StartPlayer(phone_channel,
                               std::make_unique<SpeechLikeGenerator>(5),
                               phone_opts)
                  .ok());
  system.RunUntil(Seconds(3));

  EXPECT_TRUE(cd_channel->rebroadcaster->compressing());
  EXPECT_FALSE(phone_channel->rebroadcaster->compressing());
}

TEST(PipelineTest, CompressionReducesWireLoadSubstantially) {
  // C1 shape: raw CD is ~1.4 Mbps payload; Vorbix cuts it by 2x or more.
  auto run = [](bool compress) {
    EthernetSpeakerSystem system;
    RebroadcasterOptions rb;
    rb.codec_override = compress ? CodecId::kVorbix : CodecId::kRaw;
    Channel* channel = *system.CreateChannel("music", rb);
    PlayerAppOptions opts;
    opts.config = AudioConfig::CdQuality();
    EXPECT_TRUE(system
                    .StartPlayer(channel,
                                 std::make_unique<MusicLikeGenerator>(6), opts)
                    .ok());
    system.RunUntil(Seconds(10));
    return channel->rebroadcaster->stats();
  };
  RebroadcasterStats raw = run(false);
  RebroadcasterStats vorbix = run(true);
  double raw_bps = static_cast<double>(raw.payload_bytes) * 8.0 / 10.0;
  double vorbix_bps = static_cast<double>(vorbix.payload_bytes) * 8.0 / 10.0;
  EXPECT_NEAR(raw_bps, 1.41e6, 0.15e6);  // "around 1.3Mbps" §2.2.
  EXPECT_LT(vorbix_bps, raw_bps / 2.0);
}

TEST(PipelineTest, RateLimiterKeepsProducerAtRealTime) {
  // §3.1: the producer must not outrun playback even though the VAD allows
  // it. Over 10 s, bytes read from the VAD ~= 10 s of audio.
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(7), opts)
                  .ok());
  system.RunUntil(Seconds(10));
  const RebroadcasterStats& stats = channel->rebroadcaster->stats();
  double seconds_sent =
      static_cast<double>(stats.pcm_bytes_in) /
      static_cast<double>(AudioConfig::CdQuality().bytes_per_second());
  // Bounded lead: real time plus the limiter lead and staging buffer
  // (~1.1 s), never the whole stream at wire speed.
  EXPECT_NEAR(seconds_sent, 10.0, 1.6);
  EXPECT_GT(stats.rate_limit_sleeps, 0u);
}

TEST(PipelineTest, WithoutRateLimiterTheSongBlastsAndSpeakersLoseMost) {
  // §3.1's failure mode: a 60-second "song" is multicast at drain speed;
  // the speaker's buffer overflows and only the first seconds survive.
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.rate_limiter_enabled = false;
  Channel* channel = *system.CreateChannel("music", rb);
  SpeakerOptions speaker_options = FastSpeaker("es");
  speaker_options.jitter_buffer_bytes = 512 * 1024;
  EthernetSpeaker* speaker =
      *system.AddSpeaker(speaker_options, channel->group);

  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  opts.total_frames = 60 * 44100;  // A one-minute song.
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(8), opts)
                  .ok());
  system.RunUntil(Seconds(70));

  const RebroadcasterStats& pstats = channel->rebroadcaster->stats();
  // The whole song left the producer long before 60 s of real time.
  EXPECT_EQ(pstats.pcm_bytes_in, 60ull * 176400ull);
  EXPECT_EQ(pstats.rate_limit_sleeps, 0u);
  // The speaker dropped most of it on the floor.
  EXPECT_GT(speaker->stats().overflow_drops, 0u);
  double played_seconds =
      static_cast<double>(speaker->stats().chunks_played) * 4096.0 / 44100.0;
  EXPECT_LT(played_seconds, 20.0);  // "only the first few seconds".
}

TEST(PipelineTest, PacketLossCausesGapsButPlaybackContinues) {
  SystemOptions sys_options;
  sys_options.lan.loss_probability = 0.05;
  EthernetSpeakerSystem system(sys_options);
  Channel* channel = *system.CreateChannel("music");
  EthernetSpeaker* speaker =
      *system.AddSpeaker(FastSpeaker("es"), channel->group);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(9), opts)
                  .ok());
  system.RunUntil(Seconds(20));
  ASSERT_TRUE(speaker->ready());
  // Lost packets leave gaps, but the stream keeps going: played chunks plus
  // network losses account for everything sent.
  EXPECT_GT(speaker->stats().chunks_played, 150u);
  EXPECT_GT(speaker->output()->CountGaps(Milliseconds(10)), 0);
  EXPECT_EQ(speaker->stats().late_drops, 0u);
}

TEST(PipelineTest, JitterWithinEpsilonStaysInaudible) {
  // Moderate delivery jitter is absorbed by the playout buffer + epsilon.
  SystemOptions sys_options;
  sys_options.lan.jitter = Milliseconds(5);
  EthernetSpeakerSystem system(sys_options);
  Channel* channel = *system.CreateChannel("music");
  EthernetSpeaker* s1 = *system.AddSpeaker(FastSpeaker("es1"), channel->group);
  EthernetSpeaker* s2 = *system.AddSpeaker(FastSpeaker("es2"), channel->group);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(10), opts)
                  .ok());
  system.RunUntil(Seconds(10));
  EXPECT_EQ(s1->stats().late_drops, 0u);
  EXPECT_EQ(s2->stats().late_drops, 0u);
  // Skew between speakers is bounded by the clock-offset error the jitter
  // induces (control packets arrive at different times), small vs epsilon.
  // Measure within one control-packet epoch: each control packet re-adopts
  // the producer clock with a fresh jitter draw, so offsets drift between
  // epochs (a property of the paper's latest-wins clock scheme).
  auto report = system.MeasureSync(Seconds(4) + Milliseconds(100),
                                   Milliseconds(700), Milliseconds(50));
  EXPECT_EQ(report.speaker_pairs, 1);
  EXPECT_LE(report.max_skew_seconds, 0.012);
}

TEST(PipelineTest, SourceGapResyncsDeadlines) {
  // The player finishes a song; a new one starts 3 s later. The speaker
  // must resume cleanly (deadline timeline restarts).
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  EthernetSpeaker* speaker =
      *system.AddSpeaker(FastSpeaker("es"), channel->group);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  opts.total_frames = 3 * 44100;
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(11), opts)
                  .ok());
  system.RunUntil(Seconds(6));
  uint64_t played_after_first = speaker->stats().chunks_played;
  EXPECT_GT(played_after_first, 20u);

  // Second song on the same channel.
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(12), opts)
                  .ok());
  system.RunUntil(Seconds(12));
  EXPECT_GT(speaker->stats().chunks_played, played_after_first + 20u);
  EXPECT_EQ(speaker->stats().late_drops, 0u);
}

TEST(PipelineTest, SpeakerSwitchesChannels) {
  EthernetSpeakerSystem system;
  Channel* music = *system.CreateChannel("music");
  Channel* voice = *system.CreateChannel("voice");
  PlayerAppOptions music_opts;
  music_opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(music, std::make_unique<MusicLikeGenerator>(13),
                               music_opts)
                  .ok());
  PlayerAppOptions voice_opts;
  voice_opts.config = AudioConfig::PhoneQuality();
  voice_opts.chunk_frames = 800;
  ASSERT_TRUE(system
                  .StartPlayer(voice,
                               std::make_unique<SpeechLikeGenerator>(14),
                               voice_opts)
                  .ok());

  EthernetSpeaker* speaker = *system.AddSpeaker(FastSpeaker("es"), music->group);
  system.RunUntil(Seconds(5));
  ASSERT_TRUE(speaker->ready());
  EXPECT_EQ(speaker->config()->sample_rate, 44100);
  uint64_t music_chunks = speaker->stats().chunks_played;
  EXPECT_GT(music_chunks, 10u);

  // Tune to the voice channel ("clients can tune in or out of a
  // transmission without the server's knowledge or cooperation", §6).
  ASSERT_TRUE(speaker->Tune(voice->group).ok());
  EXPECT_FALSE(speaker->ready());  // Must wait for a control packet again.
  system.RunUntil(Seconds(10));
  ASSERT_TRUE(speaker->ready());
  EXPECT_EQ(speaker->config()->sample_rate, 8000);
  EXPECT_GT(speaker->stats().chunks_played, music_chunks);
}

TEST(PipelineTest, TwoChannelsDisjointAndOverlappingSubscribers) {
  EthernetSpeakerSystem system;
  Channel* music = *system.CreateChannel("music");
  Channel* voice = *system.CreateChannel("voice");
  // es-0 hears music only, es-1 voice only, es-2 both at once.
  EthernetSpeaker* s0 = *system.AddSpeaker(FastSpeaker("es0"), music->group);
  EthernetSpeaker* s1 = *system.AddSpeaker(FastSpeaker("es1"), voice->group);
  EthernetSpeaker* s2 = *system.AddSpeaker(FastSpeaker("es2"), music->group);
  ASSERT_TRUE(system.SubscribeSpeaker(2, "voice").ok());

  PlayerAppOptions music_opts;
  music_opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(music, std::make_unique<MusicLikeGenerator>(21),
                               music_opts)
                  .ok());
  PlayerAppOptions voice_opts;
  voice_opts.config = AudioConfig::PhoneQuality();
  voice_opts.chunk_frames = 800;
  ASSERT_TRUE(system
                  .StartPlayer(voice,
                               std::make_unique<SpeechLikeGenerator>(22),
                               voice_opts)
                  .ok());
  system.RunUntil(Seconds(5));

  // Disjoint speakers each hear exactly their own stream.
  ASSERT_NE(s0->session(music->group), nullptr);
  EXPECT_GT(s0->session(music->group)->stats().chunks_played, 10u);
  EXPECT_EQ(s0->session(voice->group), nullptr);
  ASSERT_NE(s1->session(voice->group), nullptr);
  EXPECT_GE(s1->session(voice->group)->stats().chunks_played, 10u);
  EXPECT_EQ(s1->session(music->group), nullptr);
  // The overlapping speaker decodes and plays both streams concurrently on
  // its one shared decode CPU.
  ASSERT_NE(s2->session(music->group), nullptr);
  ASSERT_NE(s2->session(voice->group), nullptr);
  EXPECT_GT(s2->session(music->group)->stats().chunks_played, 10u);
  EXPECT_GE(s2->session(voice->group)->stats().chunks_played, 10u);
  EXPECT_EQ(s2->stats().late_drops, 0u);

  // The directory's who-hears-what view reflects all three bindings.
  system.RefreshDirectory();
  std::string view = system.directory()->RenderWhoHearsWhat();
  EXPECT_NE(view.find("music"), std::string::npos);
  EXPECT_NE(view.find("voice"), std::string::npos);
  EXPECT_NE(view.find("es-2"), std::string::npos);
}

TEST(PipelineTest, RuntimeSubscribeAndUnsubscribeByStreamName) {
  EthernetSpeakerSystem system;
  Channel* music = *system.CreateChannel("music");
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(music, std::make_unique<MusicLikeGenerator>(23),
                               opts)
                  .ok());
  // Born unsubscribed: hears nothing.
  EthernetSpeaker* speaker = *system.AddSpeaker(FastSpeaker("es"));
  system.RunUntil(Seconds(2));
  EXPECT_TRUE(speaker->subscriptions().empty());
  EXPECT_EQ(speaker->stats().chunks_played, 0u);

  // Unknown stream names and out-of-range speaker indices are rejected.
  EXPECT_FALSE(system.SubscribeSpeaker(0, "no-such-stream").ok());
  EXPECT_FALSE(system.SubscribeSpeaker(7, "music").ok());

  ASSERT_TRUE(system.SubscribeSpeaker(0, "music").ok());
  system.RunUntil(Seconds(6));
  uint64_t played = speaker->stats().chunks_played;
  EXPECT_GT(played, 10u);

  ASSERT_TRUE(system.UnsubscribeSpeaker(0, "music").ok());
  system.RunUntil(Seconds(10));
  EXPECT_EQ(speaker->stats().chunks_played, played);
  EXPECT_FALSE(speaker->ready());
}

TEST(PipelineTest, EightSimultaneousStreams) {
  // Figure 4's setup: eight separate CD-quality stereo streams through one
  // producer machine, all compressed, all played correctly.
  EthernetSpeakerSystem system;
  std::vector<EthernetSpeaker*> speakers;
  for (int i = 0; i < 8; ++i) {
    Channel* channel = *system.CreateChannel("stream" + std::to_string(i));
    PlayerAppOptions opts;
    opts.config = AudioConfig::CdQuality();
    ASSERT_TRUE(system
                    .StartPlayer(channel,
                                 std::make_unique<MusicLikeGenerator>(
                                     100 + static_cast<uint64_t>(i)),
                                 opts)
                    .ok());
    speakers.push_back(
        *system.AddSpeaker(FastSpeaker("es" + std::to_string(i)),
                           channel->group));
  }
  system.RunUntil(Seconds(5));
  for (EthernetSpeaker* s : speakers) {
    ASSERT_TRUE(s->ready()) << s->name();
    EXPECT_GT(s->stats().chunks_played, 30u) << s->name();
    EXPECT_EQ(s->stats().late_drops, 0u) << s->name();
  }
}

TEST(PipelineTest, PacketTraceCoversWholeLifecycle) {
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  (void)*system.AddSpeaker(FastSpeaker("es"), channel->group);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(16), opts)
                  .ok());
  system.RunUntil(Seconds(5));

  // A mid-stream packet that has long since left the playout pipeline.
  const uint32_t seq = 20;
  auto events = system.zone_tracer(0)->EventsFor(channel->stream_id, seq);
  std::vector<TraceStage> stages;
  for (const TraceEvent& event : events) {
    stages.push_back(event.stage);
  }
  const std::vector<TraceStage> expected = {
      TraceStage::kVadWrite,      TraceStage::kRebroadcastRead,
      TraceStage::kEncode,        TraceStage::kMulticastSend,
      TraceStage::kSpeakerReceive, TraceStage::kDecodeDone,
      TraceStage::kPlay};
  ASSERT_EQ(stages, expected)
      << system.zone_tracer(0)->Dump(channel->stream_id, seq);
  // The lifecycle moves forward in simulated time, stage by stage.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].at, events[i - 1].at)
        << TraceStageName(events[i].stage);
  }
  // Send-to-play latency across the ring sits inside the playout window:
  // bounded by playout_delay plus the rate limiter's lead (the initial
  // burst is sent early and waits in the jitter buffer).
  RunningStats e2e = system.zone_tracer(0)->StageLatencyMs(
      TraceStage::kMulticastSend, TraceStage::kPlay);
  EXPECT_GT(e2e.count(), 10);
  EXPECT_GT(e2e.mean(), 0.0);
  EXPECT_LE(e2e.max(), 500.0);  // playout_delay + rate_limiter_lead, in ms.
}

TEST(PipelineTest, OverloadedSegmentTracesQueueDropsAndFiresQueueDropSlo) {
  // A raw CD stream (~1.4 Mbps) through a 1 Mbps segment with a shallow
  // transmit queue: the excess has nowhere to go, so packets must tail-drop
  // — and every drop must surface twice, as a kQueueDrop terminal trace
  // stage and as the lan.queue_drop_rate SLO firing.
  SystemOptions sys_options;
  sys_options.lan.bandwidth_bps = 1e6;
  sys_options.lan.tx_queue_limit = 64 * 1024;
  EthernetSpeakerSystem system(sys_options);
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  (void)*system.AddSpeaker(FastSpeaker("es"), channel->group);
  // The steady-state overload sheds ~3 large packets per second; set the
  // SLO threshold below that so the firing state is sustained, not just the
  // initial burst.
  EthernetSpeakerSystem::HealthRuleDefaults rules;
  rules.queue_drop_rate_per_sec = 1.0;
  HealthMonitor* health = system.EnableHealthMonitoring({}, rules);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(17), opts)
                  .ok());
  system.RunUntil(Seconds(10));

  ASSERT_GT(system.lan()->stats().packets_dropped_queue, 0u);
  // Terminal kQueueDrop stages appear in the trace ring, attributed to the
  // producer's station.
  size_t queue_drop_events = 0;
  for (const TraceEvent& event : system.zone_tracer(0)->events()) {
    if (event.stage == TraceStage::kQueueDrop) {
      EXPECT_EQ(event.stream_id, channel->stream_id);
      ++queue_drop_events;
    }
  }
  EXPECT_GT(queue_drop_events, 0u);
  // The sustained drop rate held above threshold long enough to fire.
  EXPECT_EQ(health->engine()->StateOf("lan.queue_drop_rate"),
            AlertState::kFiring);
  EXPECT_GE(health->engine()->fired_total(), 1u);
}

TEST(PipelineTest, LossySegmentTracesLinkLossEndToEnd) {
  // Heavy random loss: some traced packets must terminate in kLinkLoss at
  // the speaker's station instead of reaching kPlay.
  SystemOptions sys_options;
  sys_options.lan.loss_probability = 0.25;
  EthernetSpeakerSystem system(sys_options);
  Channel* channel = *system.CreateChannel("music");
  EthernetSpeaker* speaker =
      *system.AddSpeaker(FastSpeaker("es"), channel->group);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(18), opts)
                  .ok());
  system.RunUntil(Seconds(10));

  ASSERT_GT(system.lan()->stats().deliveries_lost, 0u);
  SimNic* speaker_nic = system.NicOf(speaker);
  ASSERT_NE(speaker_nic, nullptr);
  size_t link_loss_events = 0;
  for (const TraceEvent& event : system.zone_tracer(0)->events()) {
    if (event.stage == TraceStage::kLinkLoss) {
      EXPECT_EQ(event.node, speaker_nic->node_id());
      ++link_loss_events;
    }
  }
  EXPECT_GT(link_loss_events, 0u);
  // Playback survives the loss (the §2.2 graceful-degradation story):
  // roughly three quarters of the ~108 chunks still play.
  EXPECT_GT(speaker->stats().chunks_played, 50u);
}

TEST(PipelineTest, SlowDecoderWithLargeBuffersSkips) {
  // §3.4: large buffers + slow CPU stall the pipeline ("time delays add up,
  // resulting in skipped audio"); small buffers fix it.
  auto run = [](int64_t packet_frames) {
    EthernetSpeakerSystem system;
    RebroadcasterOptions rb;
    rb.packet_frames = packet_frames;
    rb.playout_delay = Milliseconds(200);
    Channel* channel = *system.CreateChannel("music", rb);
    SpeakerOptions slow;
    slow.name = "eon4000";
    slow.decode_speed_factor = 0.8;  // A 233 MHz Geode, nearly maxed out.
    EthernetSpeaker* speaker = *system.AddSpeaker(slow, channel->group);
    PlayerAppOptions opts;
    opts.config = AudioConfig::CdQuality();
    EXPECT_TRUE(system
                    .StartPlayer(channel,
                                 std::make_unique<MusicLikeGenerator>(15),
                                 opts)
                    .ok());
    system.RunUntil(Seconds(15));
    return speaker->stats();
  };
  SpeakerStats small_buffers = run(2048);   // ~46 ms chunks.
  SpeakerStats large_buffers = run(65536);  // ~1.5 s chunks.
  EXPECT_EQ(small_buffers.late_drops, 0u);
  EXPECT_GT(large_buffers.late_drops, 0u);
}

}  // namespace
}  // namespace espk
