#include "src/core/system.h"

#include <algorithm>

#include "src/audio/analysis.h"
#include "src/base/logging.h"

namespace espk {
namespace {

// How often the ZoneCollector flushes the span plane: idle traces are
// finalized and tail-sampling decisions run.
constexpr SimDuration kSpanFlushPeriod = Milliseconds(250);

// The default SLO rules' fixed parameters: every rate and aggregate is
// taken over kRuleWindow, a rule fires after kRuleFor in breach and clears
// after kRuleClear clean; the rest are thresholds.
constexpr SimDuration kRuleWindow = Seconds(1);
constexpr SimDuration kRuleFor = Milliseconds(200);
constexpr SimDuration kRuleClear = Milliseconds(300);
constexpr double kSyncDriftP99Ms = 15.0;   // speaker.<i>.sync_drift
constexpr double kBarrierStallMs = 250.0;  // runtime.barrier_stall

ShardGroup::Options MakeShardOptions(const SystemOptions& options) {
  ShardGroup::Options shard_options;
  shard_options.shards = std::max(1, options.sharded.zones);
  shard_options.lookahead = options.lan.base_delay;
  shard_options.threads = options.sharded.threads;
  return shard_options;
}

}  // namespace

EthernetSpeakerSystem::EthernetSpeakerSystem(const SystemOptions& options)
    : shards_(MakeShardOptions(options)),
      sim_(*shards_.sim(0)),
      metrics_(&sim_),
      tracer_(&sim_),
      kernel_(&sim_, &metrics_),
      lan_(&sim_, options.lan) {
  lan_.EnableSharding(&shards_, /*home_shard=*/0);
  // The zone tracers hold the ground truth (tracer_ is a mirror the
  // ZoneCollector feeds at barriers), so trace.* sums over them.
  std::vector<const PacketTracer*> tracers;
  for (int z = 0; z < zones(); ++z) {
    speaker_zones_.push_back(std::make_unique<SpeakerZone>(shards_.sim(z)));
    lan_.RegisterZoneSink(z, speaker_zones_.back().get());
    zone_tracers_.push_back(std::make_unique<PacketTracer>(shards_.sim(z)));
    tracers.push_back(zone_tracers_.back().get());
  }
  lan_.set_tracer(zone_tracer(0));
  RegisterLanMetrics();
  RegisterTracerMetrics(std::move(tracers), &metrics_);
}

int EthernetSpeakerSystem::ZoneOf(size_t speaker_index) const {
  if (speaker_index < speaker_zone_index_.size()) {
    return speaker_zone_index_[speaker_index];
  }
  return 0;
}

void EthernetSpeakerSystem::RegisterLanMetrics() {
  EthernetSegment* lan = &lan_;
  metrics_.GetGauge(
      "lan.packets_offered",
      [lan] { return static_cast<double>(lan->stats().packets_offered); },
      "Packets handed to the segment for transmission");
  metrics_.GetGauge(
      "lan.packets_sent",
      [lan] { return static_cast<double>(lan->stats().packets_sent); },
      "Packets that made it onto the wire");
  metrics_.GetGauge(
      "lan.packets_dropped_queue",
      [lan] {
        return static_cast<double>(lan->stats().packets_dropped_queue);
      },
      "Tail drops at the transmit queue");
  metrics_.GetGauge(
      "lan.deliveries",
      [lan] { return static_cast<double>(lan->stats().deliveries); },
      "Per-receiver handoffs");
  metrics_.GetGauge(
      "lan.deliveries_lost",
      [lan] { return static_cast<double>(lan->stats().deliveries_lost); },
      "Per-receiver random losses");
  metrics_.GetGauge(
      "lan.bytes_on_wire",
      [lan] { return static_cast<double>(lan->stats().bytes_on_wire); },
      "Payload plus framing overhead for sent packets");
  metrics_.GetGauge(
      "lan.utilization_bps",
      [lan] { return lan->average_utilization_bps(); },
      "Average offered wire load since the first packet");
}

MetricsRegistry* EthernetSpeakerSystem::AddStation(const std::string& name) {
  auto station = std::make_unique<Station>();
  station->name = name;
  station->registry = std::make_unique<MetricsRegistry>(&sim_);
  stations_.push_back(std::move(station));
  return stations_.back()->registry.get();
}

Station* EthernetSpeakerSystem::FindStation(const std::string& name) {
  for (auto& station : stations_) {
    if (station->name == name) {
      return station.get();
    }
  }
  return nullptr;
}

EthernetSpeakerSystem::~EthernetSpeakerSystem() {
  // Producers and players hold kernel fds; stop them before the kernel's
  // device table unwinds.
  for (auto& channel : channels_) {
    if (channel->rebroadcaster != nullptr) {
      channel->rebroadcaster->Stop();
    }
  }
  for (auto& player : players_) {
    player->Stop();
  }
}

Result<Channel*> EthernetSpeakerSystem::CreateChannel(
    const std::string& name, RebroadcasterOptions rb_options,
    VadOptions vad_options) {
  auto channel = std::make_unique<Channel>();
  channel->name = name;
  channel->stream_id = next_stream_id_++;
  // The directory owns group allocation: channels are streams first, and
  // every consumer (speakers, the dashboard, zone policies) resolves them
  // by name through it.
  Result<const StreamRecord*> record = directory_.RegisterStream(
      name, channel->stream_id,
      rb_options.codec_override.value_or(CodecId::kRaw));
  if (!record.ok()) {
    --next_stream_id_;
    return record.status();
  }
  channel->group = (*record)->group;
  int index = static_cast<int>(channel->stream_id) - 1;
  channel->slave_path = "/dev/vads" + std::to_string(index);

  Result<VadHandles> vad = CreateVadPair(&kernel_, index, vad_options);
  if (!vad.ok()) {
    return vad.status();
  }
  channel->vad = *vad;
  channel->vad.master->SetTrace(zone_tracer(0), channel->stream_id);
  channel->producer_nic = lan_.CreateNic();

  rb_options.stream_id = channel->stream_id;
  rb_options.group = channel->group;
  rb_options.channel_name = name;
  rb_options.tracer = zone_tracer(0);
  // The channel's metrics live on its own station registry ("rb-<sid>",
  // scraped by the fleet collector) and nowhere else.
  MetricsRegistry* station =
      AddStation("rb-" + std::to_string(channel->stream_id));
  rb_options.encode_ms_histogram = station->GetHistogram(
      "rebroadcast.encode_ms", 0.0, 50.0, 100,
      "Per-packet codec CPU cost (host milliseconds)");
  channel->rebroadcaster = std::make_unique<Rebroadcaster>(
      &kernel_, NewPid(), "/dev/vadm" + std::to_string(index),
      channel->producer_nic.get(), rb_options);
  ESPK_RETURN_IF_ERROR(channel->rebroadcaster->Start());

  Rebroadcaster* rb = channel->rebroadcaster.get();
  station->GetGauge(
      "rebroadcast.data_packets",
      [rb] { return static_cast<double>(rb->stats().data_packets); },
      "Data packets multicast by this channel");
  station->GetGauge(
      "rebroadcast.control_packets",
      [rb] { return static_cast<double>(rb->stats().control_packets); },
      "Control packets multicast by this channel");
  station->GetGauge(
      "rebroadcast.payload_bytes",
      [rb] { return static_cast<double>(rb->stats().payload_bytes); },
      "Post-codec payload bytes sent");
  station->GetGauge(
      "rebroadcast.pcm_bytes_in",
      [rb] { return static_cast<double>(rb->stats().pcm_bytes_in); },
      "Raw PCM bytes read from the VAD master");
  station->GetGauge(
      "rebroadcast.rate_limit_sleeps",
      [rb] { return static_cast<double>(rb->stats().rate_limit_sleeps); },
      "Times the rate limiter put the producer to sleep");
  station->GetGauge(
      "rebroadcast.packets_suppressed",
      [rb] { return static_cast<double>(rb->stats().packets_suppressed); },
      "Packets withheld while transmission was suspended");
  station->GetGauge(
      "rebroadcast.encode_cpu_seconds",
      [rb] { return rb->encode_cpu_seconds(); },
      "Total host CPU spent inside the codec");

  channels_.push_back(std::move(channel));
  channel_registries_.push_back(station);
  if (spans_ != nullptr) {
    AttachChannelSpans(channels_.size() - 1);
  }
  return channels_.back().get();
}

Result<PlayerApp*> EthernetSpeakerSystem::StartPlayer(
    Channel* channel, std::unique_ptr<SignalGenerator> generator,
    PlayerAppOptions options) {
  auto player = std::make_unique<PlayerApp>(&kernel_, NewPid(),
                                            channel->slave_path,
                                            std::move(generator), options);
  ESPK_RETURN_IF_ERROR(player->Start());
  players_.push_back(std::move(player));
  return players_.back().get();
}

Result<EthernetSpeaker*> EthernetSpeakerSystem::AddSpeaker(
    SpeakerOptions options, GroupId group) {
  if (directory_.FindByGroup(group) == nullptr) {
    return NotFoundError("no registered stream on group " +
                         std::to_string(group) +
                         " (create the channel before its speakers)");
  }
  Result<EthernetSpeaker*> speaker = AddSpeaker(std::move(options));
  if (speaker.ok()) {
    ESPK_RETURN_IF_ERROR((*speaker)->Subscribe(group));
  }
  return speaker;
}

Result<EthernetSpeaker*> EthernetSpeakerSystem::AddSpeaker(
    SpeakerOptions options) {
  auto nic = lan_.CreateNic();
  const size_t index = speakers_.size();
  // Zone placement is round-robin. The speaker's event loop, and the
  // tracer its pipeline records into, are the zone's — zone 0 shares shard
  // 0 (and its tracer) with the producers.
  const int zone = static_cast<int>(index) % zones();
  options.tracer = zone_tracer(zone);
  // Same per-station ownership as channels: the speaker's metrics live on
  // station "es-<i>" and nowhere else.
  MetricsRegistry* station = AddStation("es-" + std::to_string(index));
  options.lateness_histogram = station->GetHistogram(
      "speaker.lateness_ms", -500.0, 500.0, 100,
      "Decode-completion time relative to the play deadline (ms; negative = "
      "early)");
  auto speaker =
      std::make_unique<EthernetSpeaker>(shards_.sim(zone), nic.get(), options);
  // Route this NIC through the zone's batch sink: one delivery event per
  // (packet, zone) instead of one per speaker.
  const int member =
      speaker_zones_[static_cast<size_t>(zone)]->AddSpeaker(nic.get(),
                                                            speaker.get());
  lan_.AssignZone(nic.get(), zone, member);
  speaker_zone_index_.push_back(zone);
  EthernetSpeaker* sp = speaker.get();
  station->GetGauge(
      "speaker.packets_received",
      [sp] { return static_cast<double>(sp->stats().packets_received); },
      "Datagrams that reached this speaker's NIC handler");
  station->GetGauge(
      "speaker.chunks_played",
      [sp] { return static_cast<double>(sp->stats().chunks_played); },
      "Audio chunks rendered at (or within epsilon of) their deadline");
  station->GetGauge(
      "speaker.late_drops",
      [sp] { return static_cast<double>(sp->stats().late_drops); },
      "Chunks thrown away past deadline + epsilon (§3.2)");
  station->GetGauge(
      "speaker.overflow_drops",
      [sp] { return static_cast<double>(sp->stats().overflow_drops); },
      "Chunks refused because the jitter buffer was full");
  station->GetGauge(
      "speaker.queued_pcm_bytes",
      [sp] { return static_cast<double>(sp->queued_pcm_bytes()); },
      "Decoded-but-unplayed PCM occupying the jitter buffer");
  station->GetGauge(
      "speaker.silence_ms",
      [sp] { return static_cast<double>(sp->stats().silence_ns) / 1e6; },
      "Cumulative dead air between played chunks (ms)");
  station->GetGauge(
      "speaker.subscriptions",
      [sp] { return static_cast<double>(sp->subscriptions().size()); },
      "Concurrently subscribed streams");
  speaker_nics_.push_back(std::move(nic));
  speakers_.push_back(std::move(speaker));
  speaker_registries_.push_back(station);
  if (spans_ != nullptr) {
    AttachSpeakerSpans(speakers_.size() - 1);
  }
  return speakers_.back().get();
}

void EthernetSpeakerSystem::AttachChannelSpans(size_t index) {
  const Channel& channel = *channels_[index];
  SpanRecorder* recorder = spans_->AddStation(
      "rb-" + std::to_string(channel.stream_id),
      channel.producer_nic->node_id(), channel_registries_[index]);
  spans_->BindStream(channel.stream_id, channel.producer_nic->node_id(),
                     recorder);
}

void EthernetSpeakerSystem::AttachSpeakerSpans(size_t index) {
  spans_->AddStation("es-" + std::to_string(index),
                     speaker_nics_[index]->node_id(),
                     speaker_registries_[index]);
}

ZoneCollector* EthernetSpeakerSystem::BuildZoneCollector() {
  if (zone_collector_ == nullptr) {
    std::vector<PacketTracer*> tracers;
    for (const auto& tracer : zone_tracers_) {
      tracers.push_back(tracer.get());
    }
    zone_collector_ = std::make_unique<ZoneCollector>(&shards_, &tracer_,
                                                      std::move(tracers));
  }
  return zone_collector_.get();
}

ZoneCollector* EthernetSpeakerSystem::EnableZoneTelemetry() {
  ZoneCollector* collector = BuildZoneCollector();
  if (FindStation("zone-0") == nullptr) {
    for (int z = 0; z < zones(); ++z) {
      collector->RegisterZoneStation(z,
                                     AddStation("zone-" + std::to_string(z)));
    }
  }
  return collector;
}

SpanPlane* EthernetSpeakerSystem::EnableSpanTracing(
    const SpanPlaneOptions& options) {
  if (spans_ != nullptr) {
    return spans_.get();
  }
  // Spans assemble over the barrier-merged mirror. The collector replays
  // every zone's events into tracer_ in (recorded, zone, position) order at
  // each epoch barrier, and flushes the plane at aligned barriers, so the
  // exporter never runs against a half-merged mirror.
  spans_ = std::make_unique<SpanPlane>(&sim_, &tracer_, &metrics_, options);
  SpanPlane* plane = spans_.get();
  BuildZoneCollector()->Drive(kSpanFlushPeriod, [plane] { plane->Flush(); });
  for (auto& tracer : zone_tracers_) {
    tracer->set_span_stages(true);
  }
  for (size_t i = 0; i < channels_.size(); ++i) {
    AttachChannelSpans(i);
  }
  for (size_t i = 0; i < speakers_.size(); ++i) {
    AttachSpeakerSpans(i);
  }
  return spans_.get();
}

HealthMonitor* EthernetSpeakerSystem::EnableHealthMonitoring(
    const HealthOptions& options) {
  return EnableHealthMonitoring(options, HealthRuleDefaults{});
}

HealthMonitor* EthernetSpeakerSystem::EnableHealthMonitoring(
    const HealthOptions& options, const HealthRuleDefaults& rules) {
  if (health_ != nullptr) {
    return health_.get();
  }
  health_ = std::make_unique<HealthMonitor>(&sim_, &metrics_, &tracer_,
                                            options);

  health_->Watch("lan.packets_dropped_queue",
                 metrics_.Find("lan.packets_dropped_queue"));
  health_->AddRule(
      {.name = "lan.queue_drop_rate",
       .series = "lan.packets_dropped_queue",
       .aggregate = AlertAggregate::kRatePerSec,
       .comparison = AlertComparison::kAbove,
       .threshold = rules.queue_drop_rate_per_sec,
       .window = kRuleWindow,
       .for_duration = kRuleFor,
       .clear_duration = kRuleClear,
       .help = "Segment transmit queue is tail-dropping packets"});

  for (size_t i = 0; i < speakers_.size(); ++i) {
    const std::string prefix = "speaker." + std::to_string(i);
    const MetricsRegistry& station = *speaker_registries_[i];
    health_->Watch(prefix + ".late_drops", station.Find("speaker.late_drops"));
    health_->AddRule(
        {.name = prefix + ".deadline_miss_rate",
         .series = prefix + ".late_drops",
         .aggregate = AlertAggregate::kRatePerSec,
         .comparison = AlertComparison::kAbove,
         .threshold = rules.deadline_miss_rate_per_sec,
         .window = kRuleWindow,
         .for_duration = kRuleFor,
         .clear_duration = kRuleClear,
         .help = "Chunks are arriving past deadline + epsilon and being "
                 "discarded"});
    health_->Watch(prefix + ".queued_pcm_bytes",
                   station.Find("speaker.queued_pcm_bytes"));
    health_->AddRule(
        {.name = prefix + ".jitter_low_watermark",
         .series = prefix + ".queued_pcm_bytes",
         .aggregate = AlertAggregate::kMax,
         .comparison = AlertComparison::kBelow,
         .threshold = rules.jitter_low_watermark_bytes,
         .window = kRuleWindow,
         .for_duration = kRuleFor,
         .clear_duration = kRuleClear,
         // The buffer legitimately starts empty; arm only once the stream
         // has filled it.
         .requires_arming = true,
         .help = "Jitter buffer starved — no decoded audio awaiting play"});
    health_->WatchPercentile(prefix + ".lateness_ms",
                             station.Find("speaker.lateness_ms"), 0.99);
    health_->AddRule(
        {.name = prefix + ".sync_drift",
         .series = prefix + ".lateness_ms.p99",
         .aggregate = AlertAggregate::kLatest,
         .comparison = AlertComparison::kAbove,
         .threshold = kSyncDriftP99Ms,
         .window = kRuleWindow,
         .for_duration = kRuleFor,
         .clear_duration = kRuleClear,
         .help = "p99 decode lateness is approaching the sync epsilon"});
    health_->Watch(prefix + ".silence_ms", station.Find("speaker.silence_ms"));
    health_->AddRule(
        {.name = prefix + ".silence_rate",
         .series = prefix + ".silence_ms",
         .aggregate = AlertAggregate::kRatePerSec,
         .comparison = AlertComparison::kAbove,
         .threshold = rules.silence_ms_per_sec,
         .window = kRuleWindow,
         .for_duration = kRuleFor,
         .clear_duration = kRuleClear,
         .help = "Audible dead air is being inserted between chunks"});
  }

  if (zones() > 1 && rules.runtime_rules) {
    // Runtime self-telemetry rule. Barrier stall is wall-clock and will vary
    // run to run (disable runtime_rules when comparing alert logs across
    // runs).
    ZoneCollector* zc = BuildZoneCollector();
    health_->WatchReader("runtime.barrier_wait_ms", [zc] {
      return zc->last_barrier_wait_ms();
    });
    health_->AddRule(
        {.name = "runtime.barrier_stall",
         .series = "runtime.barrier_wait_ms",
         .aggregate = AlertAggregate::kMax,
         .comparison = AlertComparison::kAbove,
         .threshold = kBarrierStallMs,
         .window = kRuleWindow,
         .for_duration = kRuleFor,
         .clear_duration = kRuleClear,
         .help = "A zone is waiting on the epoch barrier for wall-clock "
                 "milliseconds (load imbalance or an overloaded host)"});
  }

  // The sampler ticks at epoch barriers: the ZoneCollector clamps epochs to
  // land exactly on the sampler's period grid and samples there, after
  // every event at that instant, so each gauge it reads is a barrier-time
  // snapshot and alert logs do not depend on the zone count.
  HealthMonitor* health = health_.get();
  BuildZoneCollector()->Drive(health->sampler()->period(), [health] {
    if (health->running()) {
      health->sampler()->SampleNow();
    }
  });
  health->Start();
  return health;
}

Status EthernetSpeakerSystem::SubscribeSpeaker(size_t speaker_index,
                                               const std::string& stream) {
  if (speaker_index >= speakers_.size()) {
    return NotFoundError("no speaker " + std::to_string(speaker_index));
  }
  ESPK_RETURN_IF_ERROR(
      directory_.CheckSubscription(stream, ZoneOf(speaker_index)));
  const StreamRecord* record = directory_.FindByName(stream);
  return speakers_[speaker_index]->Subscribe(record->group);
}

Status EthernetSpeakerSystem::UnsubscribeSpeaker(size_t speaker_index,
                                                 const std::string& stream) {
  if (speaker_index >= speakers_.size()) {
    return NotFoundError("no speaker " + std::to_string(speaker_index));
  }
  const StreamRecord* record = directory_.FindByName(stream);
  if (record == nullptr) {
    return NotFoundError("no stream named " + stream);
  }
  return speakers_[speaker_index]->Unsubscribe(record->group);
}

void EthernetSpeakerSystem::RefreshDirectory() {
  std::vector<SpeakerBindingView> bindings;
  bindings.reserve(speakers_.size());
  for (size_t i = 0; i < speakers_.size(); ++i) {
    SpeakerBindingView binding;
    binding.name = "es-" + std::to_string(i);
    binding.zone = ZoneOf(i);
    for (GroupId group : speakers_[i]->subscriptions()) {
      const StreamSession* session = speakers_[i]->session(group);
      SpeakerSubscriptionView sub;
      sub.group = group;
      sub.chunks_played = session->stats().chunks_played;
      sub.late_drops = session->stats().late_drops;
      binding.subs.push_back(sub);
    }
    bindings.push_back(std::move(binding));
  }
  directory_.UpdateBindings(std::move(bindings));
}

SimNic* EthernetSpeakerSystem::NicOf(const EthernetSpeaker* speaker) {
  for (size_t i = 0; i < speakers_.size(); ++i) {
    if (speakers_[i].get() == speaker) {
      return speaker_nics_[i].get();
    }
  }
  return nullptr;
}

EthernetSpeakerSystem::SyncReport EthernetSpeakerSystem::MeasureSync(
    SimTime from, SimDuration window, SimDuration max_skew_search,
    bool all_pairs) {
  SyncReport report;
  for (size_t i = 0; i < speakers_.size(); ++i) {
    if (!all_pairs && i > 0) {
      break;  // Compare everyone against speaker 0 only.
    }
    for (size_t j = i + 1; j < speakers_.size(); ++j) {
      EthernetSpeaker* a = speakers_[i].get();
      EthernetSpeaker* b = speakers_[j].get();
      // Compare per stream: align the pair on the first group BOTH are
      // subscribed to with a ready session and matching sample rate.
      // Cross-correlating speakers on different channels would measure the
      // programs' similarity, not playout skew.
      const StreamSession* sa = nullptr;
      const StreamSession* sb = nullptr;
      for (GroupId group : a->subscriptions()) {
        const StreamSession* ca = a->session(group);
        const StreamSession* cb = b->session(group);
        if (cb == nullptr || !ca->ready() || !cb->ready() ||
            ca->config()->sample_rate != cb->config()->sample_rate) {
          continue;
        }
        sa = ca;
        sb = cb;
        break;
      }
      if (sa == nullptr) {
        continue;  // No common ready stream.
      }
      std::vector<float> wa = sa->output()->Render(from, window);
      std::vector<float> wb = sb->output()->Render(from, window);
      if (Rms(wa) < 1e-5 || Rms(wb) < 1e-5) {
        continue;  // One of them played nothing in the window.
      }
      int64_t max_lag =
          DurationToFrames(max_skew_search, sa->config()->sample_rate) *
          sa->config()->channels;
      AlignmentResult alignment = FindAlignment(wa, wb, max_lag);
      double skew = std::abs(static_cast<double>(alignment.lag)) /
                    sa->config()->channels /
                    static_cast<double>(sa->config()->sample_rate);
      report.max_skew_seconds = std::max(report.max_skew_seconds, skew);
      report.min_correlation =
          std::min(report.min_correlation, alignment.correlation);
      ++report.speaker_pairs;
    }
  }
  return report;
}

}  // namespace espk
