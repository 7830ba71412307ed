#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/mgmt/agent.h"
#include "src/mgmt/catalog.h"
#include "src/mgmt/metrics_mib.h"
#include "src/mgmt/scrape.h"
#include "src/obs/metrics.h"

namespace espk {
namespace {

// ------------------------------------------------------------------- MIB --

TEST(MibTest, OidStringRoundTrip) {
  Oid oid = {1, 3, 6, 1, 4, 1, 9999, 1, 2};
  EXPECT_EQ(OidToString(oid), "1.3.6.1.4.1.9999.1.2");
  Result<Oid> back = OidFromString("1.3.6.1.4.1.9999.1.2");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, oid);
  EXPECT_FALSE(OidFromString("").ok());
  EXPECT_FALSE(OidFromString("1.2.x").ok());
}

TEST(MibTest, GetSetAndReadOnly) {
  Mib mib;
  int stored = 5;
  mib.Register(EspkOid({1}),
               {"rw", [&] { return std::to_string(stored); },
                [&](const std::string& v) {
                  stored = std::stoi(v);
                  return OkStatus();
                }});
  mib.Register(EspkOid({2}), {"ro", [] { return std::string("fixed"); },
                              nullptr});
  EXPECT_EQ(*mib.Get(EspkOid({1})), "5");
  ASSERT_TRUE(mib.Set(EspkOid({1}), "9").ok());
  EXPECT_EQ(stored, 9);
  Status ro = mib.Set(EspkOid({2}), "nope");
  EXPECT_EQ(ro.code(), StatusCode::kPermissionDenied);
  EXPECT_FALSE(mib.Get(EspkOid({3})).ok());
}

TEST(MibTest, WalkVisitsEverythingInOrder) {
  Mib mib;
  mib.Register(EspkOid({1, 1}), {"a", [] { return std::string("1"); }, nullptr});
  mib.Register(EspkOid({1, 2}), {"b", [] { return std::string("2"); }, nullptr});
  mib.Register(EspkOid({2, 1}), {"c", [] { return std::string("3"); }, nullptr});
  std::vector<Oid> visited;
  Oid cursor;  // Empty = start of MIB.
  for (;;) {
    Result<Oid> next = mib.GetNext(cursor);
    if (!next.ok()) {
      break;
    }
    visited.push_back(*next);
    cursor = *next;
  }
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0], EspkOid({1, 1}));
  EXPECT_EQ(visited[1], EspkOid({1, 2}));
  EXPECT_EQ(visited[2], EspkOid({2, 1}));
}

// ------------------------------------------------- Agent + console + sim --

class MgmtFixture : public ::testing::Test {
 protected:
  MgmtFixture() {
    channel_ = *system_.CreateChannel("music");
    PlayerAppOptions opts;
    opts.config = AudioConfig::CdQuality();
    EXPECT_TRUE(system_
                    .StartPlayer(channel_,
                                 std::make_unique<MusicLikeGenerator>(1), opts)
                    .ok());
    SpeakerOptions so;
    so.name = "es-lobby";
    so.decode_speed_factor = 0.05;
    speaker_ = *system_.AddSpeaker(so, channel_->group);
    agent_ = std::make_unique<SpeakerAgent>(
        system_.sim(), system_.NicOf(speaker_), speaker_);
    console_nic_ = system_.lan()->CreateNic();
    console_ = std::make_unique<MgmtConsole>(system_.sim(),
                                             console_nic_.get());
  }

  EthernetSpeakerSystem system_;
  Channel* channel_ = nullptr;
  EthernetSpeaker* speaker_ = nullptr;
  std::unique_ptr<SpeakerAgent> agent_;
  std::unique_ptr<SimNic> console_nic_;
  std::unique_ptr<MgmtConsole> console_;
};

TEST_F(MgmtFixture, GetNameAndStats) {
  system_.RunUntil(Seconds(3));
  std::vector<MgmtResponse> responses;
  console_->Get(0, MibOidName(),
                [&](const MgmtResponse& r) { responses.push_back(r); });
  system_.RunFor(Milliseconds(100));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].value, "es-lobby");

  responses.clear();
  console_->Get(0, MibOidChunksPlayed(),
                [&](const MgmtResponse& r) { responses.push_back(r); });
  system_.RunFor(Milliseconds(100));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_GT(std::stoul(responses[0].value), 0u);
}

// The agent shares its speaker's NIC, and the speaker receives through its
// zone on every zone count: the zone must hand management frames to the
// NIC's handler, not to the speaker (whose parse would count them bad).
TEST(MgmtZoneTest, AgentOnZoneSpeakerAnswersOnEveryZoneCount) {
  for (int zones : {1, 2}) {
    SystemOptions options;
    options.sharded.zones = zones;
    EthernetSpeakerSystem system(options);
    Channel* channel = *system.CreateChannel("music");
    SpeakerOptions so;
    so.name = "es-0";
    EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);
    ASSERT_EQ(system.ZoneOf(0), 0);
    SpeakerAgent agent(system.sim(), system.NicOf(speaker), speaker);
    auto console_nic = system.lan()->CreateNic();
    MgmtConsole console(system.sim(), console_nic.get());
    system.RunUntil(Milliseconds(100));

    std::vector<MgmtResponse> responses;
    console.Get(0, MibOidName(),
                [&](const MgmtResponse& r) { responses.push_back(r); });
    system.RunFor(Milliseconds(100));
    ASSERT_EQ(responses.size(), 1u) << "zones=" << zones;
    EXPECT_EQ(responses[0].value, "es-0") << "zones=" << zones;
    EXPECT_EQ(speaker->stats().bad_packets, 0u) << "zones=" << zones;
  }
}

TEST_F(MgmtFixture, SetVolumeTakesEffect) {
  system_.RunUntil(Seconds(1));
  bool ok = false;
  console_->Set(0, MibOidVolume(), "0.25",
                [&](const MgmtResponse& r) { ok = r.ok; });
  system_.RunFor(Milliseconds(100));
  EXPECT_TRUE(ok);
  EXPECT_FLOAT_EQ(speaker_->gain(), 0.25f);

  // Reject nonsense and out-of-range.
  bool rejected = true;
  console_->Set(0, MibOidVolume(), "loud",
                [&](const MgmtResponse& r) { rejected = !r.ok; });
  system_.RunFor(Milliseconds(100));
  EXPECT_TRUE(rejected);
  console_->Set(0, MibOidVolume(), "100",
                [&](const MgmtResponse& r) { rejected = !r.ok; });
  system_.RunFor(Milliseconds(100));
  EXPECT_TRUE(rejected);
  EXPECT_FLOAT_EQ(speaker_->gain(), 0.25f);
}

TEST_F(MgmtFixture, TargetedRequestIgnoredByOthers) {
  system_.RunUntil(Seconds(1));
  int responses = 0;
  // Address a node id that is not the speaker's.
  console_->Get(99999, MibOidName(),
                [&](const MgmtResponse&) { ++responses; });
  system_.RunFor(Milliseconds(200));
  EXPECT_EQ(responses, 0);
}

TEST_F(MgmtFixture, RemoteChannelSwitch) {
  // §5.3 "remote playback channel selection".
  Channel* voice = *system_.CreateChannel("voice");
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  ASSERT_TRUE(system_
                  .StartPlayer(voice,
                               std::make_unique<SpeechLikeGenerator>(2), opts)
                  .ok());
  system_.RunUntil(Seconds(2));
  EXPECT_EQ(speaker_->tuned_group().value_or(0), channel_->group);

  console_->Set(0, MibOidChannel(), std::to_string(voice->group), nullptr);
  system_.RunFor(Seconds(2));
  EXPECT_EQ(speaker_->tuned_group().value_or(0), voice->group);
  ASSERT_TRUE(speaker_->ready());
  EXPECT_EQ(speaker_->config()->sample_rate, 8000);
}

TEST_F(MgmtFixture, RemoteSubscribeAndUnsubscribe) {
  Channel* voice = *system_.CreateChannel("voice");
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  ASSERT_TRUE(system_
                  .StartPlayer(voice,
                               std::make_unique<SpeechLikeGenerator>(4), opts)
                  .ok());
  system_.RunUntil(Seconds(1));

  // Add the voice stream on top of music via .1.6.
  bool ok = false;
  console_->Set(0, MibOidSubscribe(), std::to_string(voice->group),
                [&](const MgmtResponse& r) { ok = r.ok; });
  system_.RunFor(Milliseconds(100));
  EXPECT_TRUE(ok);
  ASSERT_EQ(speaker_->subscriptions().size(), 2u);

  // .1.5 reports both groups, comma-joined in subscription order.
  std::vector<MgmtResponse> responses;
  console_->Get(0, MibOidSubscriptions(),
                [&](const MgmtResponse& r) { responses.push_back(r); });
  system_.RunFor(Milliseconds(100));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].value, std::to_string(channel_->group) + "," +
                                    std::to_string(voice->group));

  // Double subscribe and the reserved group 0 are both rejected.
  bool rejected = false;
  console_->Set(0, MibOidSubscribe(), std::to_string(voice->group),
                [&](const MgmtResponse& r) { rejected = !r.ok; });
  system_.RunFor(Milliseconds(100));
  EXPECT_TRUE(rejected);
  rejected = false;
  console_->Set(0, MibOidSubscribe(), "0",
                [&](const MgmtResponse& r) { rejected = !r.ok; });
  system_.RunFor(Milliseconds(100));
  EXPECT_TRUE(rejected);

  // Drop the original music subscription via .1.7: only voice remains, and
  // the speaker starts playing it once its next control packet lands.
  ok = false;
  console_->Set(0, MibOidUnsubscribe(), std::to_string(channel_->group),
                [&](const MgmtResponse& r) { ok = r.ok; });
  system_.RunFor(Milliseconds(100));
  EXPECT_TRUE(ok);
  ASSERT_EQ(speaker_->subscriptions().size(), 1u);
  EXPECT_EQ(speaker_->subscriptions()[0], voice->group);
  system_.RunFor(Seconds(2));
  ASSERT_TRUE(speaker_->ready());
  EXPECT_EQ(speaker_->config()->sample_rate, 8000);
}

TEST_F(MgmtFixture, OverrideAndRestore) {
  // §5.3: "movies shown on TV sets on airplane seats can be overridden by
  // crew announcements".
  Channel* announcements = *system_.CreateChannel("crew");
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 800;
  ASSERT_TRUE(system_
                  .StartPlayer(announcements,
                               std::make_unique<SpeechLikeGenerator>(3), opts)
                  .ok());
  system_.RunUntil(Seconds(2));
  GroupId original = speaker_->tuned_group().value_or(0);

  console_->OverrideAll(announcements->group);
  system_.RunFor(Seconds(2));
  EXPECT_EQ(speaker_->tuned_group().value_or(0), announcements->group);

  console_->RestoreAll();
  system_.RunFor(Seconds(2));
  EXPECT_EQ(speaker_->tuned_group().value_or(0), original);
}

TEST_F(MgmtFixture, WalkTheWholeMib) {
  system_.RunUntil(Seconds(1));
  std::vector<Oid> walked;
  std::function<void(Oid)> step = [&](Oid cursor) {
    console_->GetNext(0, cursor, [&, cursor](const MgmtResponse& r) {
      if (!r.ok) {
        return;  // End of MIB.
      }
      walked.push_back(r.oid);
      step(r.oid);
    });
  };
  step({});
  system_.RunFor(Seconds(1));
  EXPECT_EQ(walked.size(), 10u);  // All registered speaker OIDs.
}

// ------------------------------------------------ Subscription directory --

TEST(DirectoryTest, RegisterAllocatesGroupsAndRejectsDuplicates) {
  SubscriptionDirectory directory;
  Result<const StreamRecord*> music =
      directory.RegisterStream("music", 1, CodecId::kVorbix);
  ASSERT_TRUE(music.ok());
  EXPECT_EQ((*music)->group, kFirstChannelGroup);
  Result<const StreamRecord*> voice =
      directory.RegisterStream("voice", 2, CodecId::kRaw);
  ASSERT_TRUE(voice.ok());
  EXPECT_EQ((*voice)->group, kFirstChannelGroup + 1);
  EXPECT_EQ(directory.RegisterStream("music", 3, CodecId::kRaw)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(directory.stream_count(), 2u);
  EXPECT_EQ(directory.FindByName("voice"), *voice);
  EXPECT_EQ(directory.FindByGroup(kFirstChannelGroup), *music);
  EXPECT_EQ(directory.FindByStreamId(2), *voice);
  EXPECT_EQ(directory.FindByName("nope"), nullptr);
}

TEST(DirectoryTest, ZonePolicyGatesSubscriptions) {
  SubscriptionDirectory directory;
  ASSERT_TRUE(directory.RegisterStream("music", 1, CodecId::kRaw).ok());
  EXPECT_TRUE(directory.CheckSubscription("music", 1).ok());  // Empty = any.
  ASSERT_TRUE(directory.SetZonePolicy("music", {0, 2}).ok());
  EXPECT_TRUE(directory.CheckSubscription("music", 0).ok());
  EXPECT_EQ(directory.CheckSubscription("music", 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(directory.CheckSubscription("music", 2).ok());
  EXPECT_EQ(directory.CheckSubscription("nope", 0).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(directory.SetZonePolicy("nope", {1}).ok());
}

TEST(DirectoryTest, WhoHearsWhatListsStreamsSubscribersAndForeignGroups) {
  SubscriptionDirectory directory;
  ASSERT_TRUE(directory.RegisterStream("music", 1, CodecId::kVorbix).ok());
  ASSERT_TRUE(directory.RegisterStream("voice", 2, CodecId::kRaw).ok());
  directory.UpdateBindings({
      {"es-0", /*zone=*/0, {{kFirstChannelGroup, 120, 2}}},
      {"es-1",
       /*zone=*/1,
       {{kFirstChannelGroup, 80, 0}, {kFirstChannelGroup + 1, 40, 1}}},
      {"es-2", /*zone=*/2, {{999, 7, 0}}},  // Hand-tuned foreign group.
  });
  std::string view = directory.RenderWhoHearsWhat();
  EXPECT_NE(view.find("subscription directory: 2 streams, 3 speakers"),
            std::string::npos);
  EXPECT_NE(view.find("music (stream 1, group 16, codec vorbix"),
            std::string::npos);
  EXPECT_NE(view.find("es-0 [zone 0]: chunks=120 late=2"), std::string::npos);
  EXPECT_NE(view.find("es-1 [zone 1]: chunks=80 late=0"), std::string::npos);
  EXPECT_NE(view.find("unregistered group 999"), std::string::npos);
  EXPECT_NE(view.find("es-2 [zone 2]: chunks=7 late=0"), std::string::npos);
  // Streams with nobody listening say so.
  SubscriptionDirectory empty;
  ASSERT_TRUE(empty.RegisterStream("lonely", 9, CodecId::kRaw).ok());
  EXPECT_NE(empty.RenderWhoHearsWhat().find("(no subscribers)"),
            std::string::npos);
}

// -------------------------------------------------- Metrics -> MIB bridge --

TEST(MetricsMibTest, ExportRegistersPerKindArcs) {
  MetricsRegistry registry;
  registry.GetCounter("kernel.syscalls", "total syscalls")->Increment(3);
  registry.GetGauge("lan.load", [] { return 2.5; });
  HistogramMetric* h = registry.GetHistogram("enc.ms", 0.0, 10.0, 10);
  h->Observe(4.0);
  Mib mib;
  // counter + gauge + 4 histogram aspects.
  EXPECT_EQ(ExportMetricsToMib(&registry, &mib), 6u);
  EXPECT_EQ(mib.size(), 6u);
  EXPECT_EQ(*mib.Get(EspkOid({9, 1, 1})), "3");
  EXPECT_EQ(*mib.Get(EspkOid({9, 2, 1})), "2.5");
  EXPECT_EQ(*mib.Get(EspkOid({9, 3, 1})), "1");  // Histogram count.
  EXPECT_EQ(*mib.Get(EspkOid({9, 3, 2})), "4");  // Mean.
  // The variables read through to the live metrics.
  registry.GetCounter("kernel.syscalls")->Increment();
  EXPECT_EQ(*mib.Get(EspkOid({9, 1, 1})), "4");
  // Descriptions carry the metric name and help text for the console.
  const std::string* description = mib.Describe(EspkOid({9, 1, 1}));
  ASSERT_NE(description, nullptr);
  EXPECT_NE(description->find("kernel.syscalls"), std::string::npos);
  EXPECT_NE(description->find("total syscalls"), std::string::npos);
}

TEST_F(MgmtFixture, MibWalkEnumeratesLiveSystemMetrics) {
  system_.RunUntil(Seconds(3));
  // One MIB per station (§5.3): the system's own, the channel's, and the
  // speaker's. Walk each whole tree via GetNext, as an NMS console would.
  auto walk = [](const MetricsRegistry* registry) {
    Mib mib;
    EXPECT_GT(ExportMetricsToMib(registry, &mib), 0u);
    std::map<std::string, double> walked;
    Oid cursor;
    for (;;) {
      Result<Oid> next = mib.GetNext(cursor);
      if (!next.ok()) {
        break;
      }
      cursor = *next;
      const std::string* description = mib.Describe(cursor);
      Result<std::string> value = mib.Get(cursor);
      EXPECT_NE(description, nullptr);
      EXPECT_TRUE(value.ok()) << OidToString(cursor);
      if (description != nullptr && value.ok()) {
        walked[*description] = std::stod(*value);
      }
    }
    EXPECT_EQ(walked.size(), mib.size());
    return walked;
  };
  const auto system_mib = walk(system_.metrics());
  const auto rb_mib = walk(system_.FindStation("rb-1")->registry.get());
  const auto es_mib = walk(system_.FindStation("es-0")->registry.get());
  auto live = [](const std::map<std::string, double>& walked,
                 const std::string& needle) -> double {
    for (const auto& [description, value] : walked) {
      if (description.find(needle) != std::string::npos) {
        return value;
      }
    }
    ADD_FAILURE() << needle << " missing from the MIB walk";
    return 0.0;
  };
  // Every layer shows live (non-zero) telemetry after 3 simulated seconds.
  EXPECT_GT(live(system_mib, "kernel.syscalls"), 0.0);
  EXPECT_GT(live(system_mib, "kernel.context_switches"), 0.0);
  EXPECT_GT(live(system_mib, "lan.packets_sent"), 0.0);
  EXPECT_GT(live(rb_mib, "rebroadcast.data_packets"), 0.0);
  EXPECT_GT(live(es_mib, "speaker.chunks_played"), 0.0);
  EXPECT_GT(live(es_mib, "speaker.lateness_ms count"), 0.0);
}

TEST(MgmtRequestTest, SerializationRoundTrip) {
  MgmtRequest request;
  request.request_id = 7;
  request.target = 3;
  request.op = MgmtOp::kSet;
  request.oid = MibOidVolume();
  request.value = "0.5";
  Result<MgmtRequest> back = MgmtRequest::Deserialize(request.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, 7u);
  EXPECT_EQ(back->target, 3u);
  EXPECT_EQ(back->op, MgmtOp::kSet);
  EXPECT_EQ(back->oid, MibOidVolume());
  EXPECT_EQ(back->value, "0.5");
}

TEST(MgmtResponseTest, SerializationRoundTrip) {
  MgmtResponse response;
  response.request_id = 9;
  response.responder = 4;
  response.ok = true;
  response.oid = MibOidChannel();
  response.value = "16";
  Result<MgmtResponse> back =
      MgmtResponse::Deserialize(response.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->value, "16");
}

TEST(MgmtResponseTest, RejectsGarbage) {
  EXPECT_FALSE(MgmtResponse::Deserialize({1, 2, 3}).ok());
  EXPECT_FALSE(MgmtRequest::Deserialize({}).ok());
}

// --------------------------------------------------------------- Traps ----

TEST(MgmtTrapTest, SerializationRoundTripIsExact) {
  MgmtTrap trap;
  trap.trap_seq = 7;
  trap.source = 42;
  trap.firing = true;
  trap.rule = "speaker.0.silence_rate";
  trap.observed = 497.34825193e-3;  // Doubles travel as raw bit patterns.
  trap.threshold = 50.0;
  trap.at = Seconds(8) + Milliseconds(100);
  Result<MgmtTrap> back = MgmtTrap::Deserialize(trap.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->trap_seq, 7u);
  EXPECT_EQ(back->source, 42u);
  EXPECT_TRUE(back->firing);
  EXPECT_EQ(back->rule, "speaker.0.silence_rate");
  EXPECT_EQ(back->observed, 497.34825193e-3);  // Bit-exact, not near.
  EXPECT_EQ(back->threshold, 50.0);
  EXPECT_EQ(back->at, Seconds(8) + Milliseconds(100));
}

TEST(MgmtTrapTest, TrapFramesAndPollingFramesRejectEachOther) {
  MgmtTrap trap;
  trap.rule = "r";
  Bytes trap_wire = trap.Serialize();
  // The request/response parsers reject the kTrap op byte, which is what
  // lets traps share the management group with polling traffic.
  EXPECT_FALSE(MgmtRequest::Deserialize(trap_wire).ok());
  EXPECT_FALSE(MgmtResponse::Deserialize(trap_wire).ok());
  MgmtRequest request;
  request.op = MgmtOp::kGet;
  request.oid = MibOidName();
  EXPECT_FALSE(MgmtTrap::Deserialize(request.Serialize()).ok());
  EXPECT_FALSE(MgmtTrap::Deserialize({1, 2, 3}).ok());
}

TEST_F(MgmtFixture, AlertTransitionsArriveAsTraps) {
  HealthMonitor* health = system_.EnableHealthMonitoring();
  agent_->WatchAlerts(health->engine());
  // A canary rule over a missing series evaluates to 0, which breaches
  // "> -1" on the first sampler tick — a deterministic immediate fire.
  health->AddRule({.name = "mgmt.canary",
                   .series = "no.such.series",
                   .threshold = -1.0});
  std::vector<MgmtTrap> handled;
  console_->SetTrapHandler([&](const MgmtTrap& t) { handled.push_back(t); });
  system_.RunFor(Seconds(1));

  ASSERT_EQ(console_->traps_received(), 1u);
  ASSERT_EQ(handled.size(), 1u);
  EXPECT_EQ(handled[0].rule, "mgmt.canary");
  EXPECT_TRUE(handled[0].firing);
  EXPECT_EQ(handled[0].trap_seq, 1u);
  EXPECT_EQ(handled[0].source, system_.NicOf(speaker_)->node_id());
  EXPECT_EQ(handled[0].threshold, -1.0);
  EXPECT_EQ(console_->trap_log().size(), 1u);
  // The agent keeps answering polls with the trap sender attached.
  std::vector<MgmtResponse> responses;
  console_->Get(0, MibOidName(),
                [&](const MgmtResponse& r) { responses.push_back(r); });
  system_.RunFor(Milliseconds(100));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].value, "es-lobby");
}

TEST(MetricsMibTest, ExportAlertsPublishesPerRuleRows) {
  Simulation sim;
  MetricsRegistry registry(&sim);
  Counter* signal = registry.GetCounter("sig");
  TimeSeriesSampler sampler(&sim);
  sampler.Watch("sig", signal);
  AlertEngine engine(&sim, &sampler);
  engine.AddRule({.name = "high", .series = "sig", .threshold = 10.0});
  engine.AddRule({.name = "low",
                  .series = "sig",
                  .comparison = AlertComparison::kBelow,
                  .threshold = -5.0});
  Mib mib;
  EXPECT_EQ(ExportAlertsToMib(&engine, &mib), 10u);  // 5 rows per rule.
  EXPECT_EQ(*mib.Get(EspkOid({10, 1, 1})), "high");
  EXPECT_EQ(*mib.Get(EspkOid({10, 1, 2})), "inactive");
  EXPECT_EQ(*mib.Get(EspkOid({10, 1, 4})), "10");
  EXPECT_EQ(*mib.Get(EspkOid({10, 2, 1})), "low");
  // The rows read through to the live engine.
  signal->Increment(42);
  sampler.SampleNow();
  engine.Evaluate(sim.now());
  EXPECT_EQ(*mib.Get(EspkOid({10, 1, 2})), "firing");
  EXPECT_EQ(*mib.Get(EspkOid({10, 1, 3})), "42");
  EXPECT_EQ(*mib.Get(EspkOid({10, 1, 5})), "1");
  EXPECT_EQ(*mib.Get(EspkOid({10, 2, 2})), "inactive");
}

// ----------------------------------------------------------- Catalog ----

TEST(CatalogTest, BrowserLearnsAnnouncedChannels) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto producer_nic = segment.CreateNic();
  auto browser_nic = segment.CreateNic();

  AnnounceService service(&sim, producer_nic.get(), Seconds(1));
  AnnounceEntry music;
  music.stream_id = 1;
  music.group = kFirstChannelGroup;
  music.name = "campus radio";
  music.config = AudioConfig::CdQuality();
  music.codec = CodecId::kVorbix;
  service.SetEntries({music});
  service.Start();

  CatalogBrowser browser(&sim, browser_nic.get());
  sim.RunUntil(Seconds(3));

  auto channels = browser.Channels();
  ASSERT_EQ(channels.size(), 1u);
  EXPECT_EQ(channels[0].name, "campus radio");
  EXPECT_EQ(channels[0].group, kFirstChannelGroup);
  Result<AnnounceEntry> found = browser.Find("campus radio");
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(browser.Find("no such channel").ok());
}

TEST(CatalogTest, StaleChannelsExpire) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto producer_nic = segment.CreateNic();
  auto browser_nic = segment.CreateNic();
  AnnounceService service(&sim, producer_nic.get(), Seconds(1));
  AnnounceEntry entry;
  entry.stream_id = 1;
  entry.group = 20;
  entry.name = "ephemeral";
  entry.config = AudioConfig::PhoneQuality();
  service.SetEntries({entry});
  service.Start();
  CatalogBrowser browser(&sim, browser_nic.get());
  sim.RunUntil(Seconds(3));
  ASSERT_EQ(browser.Channels().size(), 1u);
  // The producer stops announcing; after max_age the channel disappears.
  service.Stop();
  sim.RunUntil(Seconds(20));
  EXPECT_TRUE(browser.Channels(Seconds(10)).empty());
}

// -------------------------------------------------------------- Scrape ----

TEST(ScrapeWireTest, RequestAndChunkRoundTrip) {
  ScrapeRequest request;
  request.request_id = 77;
  request.target = 9;
  Result<ScrapeRequest> req_back =
      ScrapeRequest::Deserialize(request.Serialize());
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back->request_id, 77u);
  EXPECT_EQ(req_back->target, 9u);

  ScrapeChunk chunk;
  chunk.request_id = 77;
  chunk.responder = 9;
  chunk.index = 1;
  chunk.count = 3;
  chunk.fragment = {0xde, 0xad, 0xbe, 0xef};
  Result<ScrapeChunk> back = ScrapeChunk::Deserialize(chunk.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, 77u);
  EXPECT_EQ(back->responder, 9u);
  EXPECT_EQ(back->index, 1u);
  EXPECT_EQ(back->count, 3u);
  EXPECT_EQ(back->fragment, chunk.fragment);
}

TEST(ScrapeWireTest, RejectsMalformedChunks) {
  ScrapeChunk chunk;
  chunk.count = 0;  // Zero fragments can never complete.
  EXPECT_FALSE(ScrapeChunk::Deserialize(chunk.Serialize()).ok());
  chunk.count = 2;
  chunk.index = 2;  // Out of range for its own count.
  EXPECT_FALSE(ScrapeChunk::Deserialize(chunk.Serialize()).ok());
  EXPECT_FALSE(ScrapeRequest::Deserialize({1, 2, 3}).ok());
  EXPECT_FALSE(ScrapeChunk::Deserialize({}).ok());
}

TEST(ScrapeWireTest, ScrapeAndPollingFramesRejectEachOther) {
  // Ops 6/7 share the management group with ops 1..5; every parser must
  // reject the other families' op bytes.
  ScrapeRequest scrape;
  scrape.request_id = 5;
  Bytes scrape_wire = scrape.Serialize();
  EXPECT_FALSE(MgmtRequest::Deserialize(scrape_wire).ok());
  EXPECT_FALSE(MgmtResponse::Deserialize(scrape_wire).ok());
  EXPECT_FALSE(MgmtTrap::Deserialize(scrape_wire).ok());
  MgmtRequest request;
  request.op = MgmtOp::kGet;
  request.oid = MibOidName();
  Bytes poll_wire = request.Serialize();
  EXPECT_FALSE(ScrapeRequest::Deserialize(poll_wire).ok());
  EXPECT_FALSE(ScrapeChunk::Deserialize(poll_wire).ok());
  MgmtTrap trap;
  trap.rule = "r";
  EXPECT_FALSE(ScrapeRequest::Deserialize(trap.Serialize()).ok());
}

TEST(ScrapeChunkingTest, EmptyPayloadTravelsAsOneEmptyChunk) {
  std::vector<ScrapeChunk> chunks = SplitIntoChunks(1, 2, Bytes{}, 1024);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].count, 1u);
  EXPECT_TRUE(chunks[0].fragment.empty());
  ChunkAssembler assembler;
  std::optional<Bytes> done = assembler.Add(chunks[0]);
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->empty());
}

TEST(ScrapeChunkingTest, ReassemblesOutOfOrderIgnoringNoise) {
  Bytes payload(2500);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }
  std::vector<ScrapeChunk> chunks = SplitIntoChunks(42, 7, payload, 1024);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].fragment.size(), 1024u);
  EXPECT_EQ(chunks[2].fragment.size(), 2500u - 2048u);

  ChunkAssembler assembler;
  EXPECT_FALSE(assembler.Add(chunks[2]).has_value());
  // A chunk from some other request and a duplicate are both ignored.
  ScrapeChunk foreign = chunks[1];
  foreign.request_id = 99;
  EXPECT_FALSE(assembler.Add(foreign).has_value());
  EXPECT_FALSE(assembler.Add(chunks[2]).has_value());
  EXPECT_FALSE(assembler.Add(chunks[0]).has_value());
  std::optional<Bytes> done = assembler.Add(chunks[1]);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, payload);
  assembler.Reset();
  EXPECT_FALSE(assembler.started());
}

TEST(ScrapeChunkingTest, DuplicateChunksNeverDoubleCountTowardCompletion) {
  // A retransmitted fragment must not advance the received counter past the
  // missing one: feed every chunk but the last twice, then the last once.
  Bytes payload(3000, 0x5a);
  std::vector<ScrapeChunk> chunks = SplitIntoChunks(8, 3, payload, 1024);
  ASSERT_EQ(chunks.size(), 3u);
  ChunkAssembler assembler;
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(assembler.Add(chunks[0]).has_value());
    EXPECT_FALSE(assembler.Add(chunks[1]).has_value());
  }
  EXPECT_EQ(assembler.received(), 2u);
  std::optional<Bytes> done = assembler.Add(chunks[2]);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, payload);
}

TEST(ScrapeChunkingTest, InterleavedTwoStationSnapshotsStaySeparate) {
  // The collector runs one assembler per in-flight target; chunks from two
  // stations answering different requests interleave on the wire. Each
  // assembler must ignore the other request entirely and reassemble only its
  // own snapshot, in any arrival order.
  Bytes payload_a(2100);
  Bytes payload_b(2600);
  for (size_t i = 0; i < payload_a.size(); ++i) {
    payload_a[i] = static_cast<uint8_t>(i);
  }
  for (size_t i = 0; i < payload_b.size(); ++i) {
    payload_b[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  std::vector<ScrapeChunk> a = SplitIntoChunks(21, 4, payload_a, 1024);
  std::vector<ScrapeChunk> b = SplitIntoChunks(22, 5, payload_b, 1024);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);

  ChunkAssembler for_a;
  ChunkAssembler for_b;
  std::optional<Bytes> done_a;
  std::optional<Bytes> done_b;
  // Interleaved, out of order: b2, a0, b0, a2, b1, a1.
  for (const ScrapeChunk* chunk :
       {&b[2], &a[0], &b[0], &a[2], &b[1], &a[1]}) {
    if (std::optional<Bytes> done = for_a.Add(*chunk)) {
      done_a = std::move(*done);
    }
    if (std::optional<Bytes> done = for_b.Add(*chunk)) {
      done_b = std::move(*done);
    }
  }
  // for_a saw b[2] first, so it locked onto request 22 — that is the
  // collector's real arrangement inverted; what matters is each assembler
  // completes exactly one request with that request's bytes intact.
  ASSERT_TRUE(done_a.has_value());
  ASSERT_TRUE(done_b.has_value());
  EXPECT_EQ(*done_a, payload_b);
  EXPECT_EQ(*done_b, payload_b);

  // Pinned variant: seed each assembler with its own request first, as the
  // collector does (it creates the assembler when the request goes out).
  ChunkAssembler pinned_a;
  ChunkAssembler pinned_b;
  (void)pinned_a.Add(a[0]);
  (void)pinned_b.Add(b[0]);
  done_a.reset();
  done_b.reset();
  for (const ScrapeChunk* chunk : {&b[2], &a[2], &b[1], &a[1]}) {
    if (std::optional<Bytes> done = pinned_a.Add(*chunk)) {
      done_a = std::move(*done);
    }
    if (std::optional<Bytes> done = pinned_b.Add(*chunk)) {
      done_b = std::move(*done);
    }
  }
  ASSERT_TRUE(done_a.has_value());
  ASSERT_TRUE(done_b.has_value());
  EXPECT_EQ(*done_a, payload_a);
  EXPECT_EQ(*done_b, payload_b);
}

TEST(ScrapeChunkingTest, TruncatedFinalChunkNeverCompletes) {
  // A final fragment whose wire bytes were cut short fails to parse, so the
  // assembler stays one short forever — the collector's per-attempt timeout
  // is what recovers, never a half-assembled snapshot.
  Bytes payload(2500, 0xc3);
  std::vector<ScrapeChunk> chunks = SplitIntoChunks(31, 6, payload, 1024);
  ASSERT_EQ(chunks.size(), 3u);
  Bytes wire = chunks[2].Serialize();
  wire.resize(wire.size() - 100);  // Truncated mid-fragment.
  EXPECT_FALSE(ScrapeChunk::Deserialize(wire).ok());

  ChunkAssembler assembler;
  EXPECT_FALSE(assembler.Add(chunks[0]).has_value());
  EXPECT_FALSE(assembler.Add(chunks[1]).has_value());
  EXPECT_EQ(assembler.received(), 2u);
  EXPECT_EQ(assembler.expected(), 3u);
  // A later chunk claiming a different fragment count (a restarted agent
  // re-chunking a changed snapshot) is ignored rather than spliced in.
  ScrapeChunk rechunked = chunks[2];
  rechunked.count = 4;
  EXPECT_FALSE(assembler.Add(rechunked).has_value());
  EXPECT_EQ(assembler.received(), 2u);
  // The intact final chunk still completes the original layout.
  std::optional<Bytes> done = assembler.Add(chunks[2]);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, payload);
}

TEST(ScrapeAgentTest, AnswersTargetedRequestsWithUnicastChunks) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto station_nic = segment.CreateNic();
  auto console_nic = segment.CreateNic();
  const Bytes snapshot = {1, 2, 3, 4, 5};
  ScrapeAgentOptions options;
  options.max_chunk_bytes = 2;  // Forces real fragmentation: 3 chunks.
  ScrapeAgent agent(&sim, station_nic.get(),
                    [&snapshot] { return snapshot; }, options);
  ChunkAssembler assembler;
  std::optional<Bytes> reassembled;
  console_nic->SetReceiveHandler([&](const Datagram& d) {
    Result<ScrapeChunk> chunk = ScrapeChunk::Deserialize(d.payload);
    if (chunk.ok()) {
      if (std::optional<Bytes> done = assembler.Add(*chunk)) {
        reassembled = std::move(*done);
      }
    }
  });

  ScrapeRequest mine;
  mine.request_id = 11;
  mine.target = station_nic->node_id();
  (void)console_nic->SendMulticast(kMgmtGroup, mine.Serialize());
  // A request aimed at some other node must be ignored entirely.
  ScrapeRequest other;
  other.request_id = 12;
  other.target = station_nic->node_id() + 100;
  (void)console_nic->SendMulticast(kMgmtGroup, other.Serialize());
  sim.RunFor(Milliseconds(10));

  ASSERT_TRUE(reassembled.has_value());
  EXPECT_EQ(*reassembled, snapshot);
  EXPECT_EQ(agent.scrapes_served(), 1u);
  EXPECT_EQ(agent.chunks_sent(), 3u);
}

TEST(MgmtConsoleTest, CountsTrapSequenceGapsPerSender) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto console_nic = segment.CreateNic();
  auto sender_nic = segment.CreateNic();
  MetricsRegistry registry(&sim);
  MgmtConsole console(&sim, console_nic.get(), &registry);
  auto send = [&](NodeId source, uint32_t seq) {
    MgmtTrap trap;
    trap.trap_seq = seq;
    trap.source = source;
    trap.rule = "rule";
    (void)sender_nic->SendMulticast(kMgmtGroup, trap.Serialize());
  };
  // Sender 42 skips seq 2 (one lost trap) and seqs 5-6 (two more). Sender
  // 43 is gapless — its numbering is independent of 42's.
  for (uint32_t seq : {1, 3, 4, 7}) {
    send(42, seq);
  }
  send(43, 1);
  send(43, 2);
  sim.RunFor(Milliseconds(10));
  EXPECT_EQ(console.traps_received(), 6u);
  EXPECT_EQ(console.sequence_gaps(), 3u);
  const Metric* gaps = registry.Find("trap.sequence_gaps");
  ASSERT_NE(gaps, nullptr);
  EXPECT_EQ(static_cast<const Counter*>(gaps)->value(), 3u);
  // A late-arriving old trap fills no gap and must not create a phantom
  // one either.
  send(42, 5);
  sim.RunFor(Milliseconds(10));
  EXPECT_EQ(console.sequence_gaps(), 3u);
  EXPECT_EQ(console.traps_received(), 7u);
}

TEST(CatalogTest, UpdatedEntryReplacesOld) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto producer_nic = segment.CreateNic();
  auto browser_nic = segment.CreateNic();
  AnnounceService service(&sim, producer_nic.get(), Seconds(1));
  AnnounceEntry entry;
  entry.stream_id = 1;
  entry.group = 20;
  entry.name = "before";
  entry.config = AudioConfig::PhoneQuality();
  service.SetEntries({entry});
  service.Start();
  CatalogBrowser browser(&sim, browser_nic.get());
  sim.RunUntil(Seconds(2));
  entry.name = "after";
  service.SetEntries({entry});
  sim.RunUntil(Seconds(4));
  auto channels = browser.Channels();
  ASSERT_EQ(channels.size(), 1u);
  EXPECT_EQ(channels[0].name, "after");
}

}  // namespace
}  // namespace espk
