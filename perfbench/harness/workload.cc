#include "harness/workload.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "harness/alloc_count.h"
#include "src/base/prng.h"
#include "src/core/system.h"
#include "src/obs/spans/plane.h"

namespace perfbench {
namespace {

using espk::Milliseconds;
using espk::Seconds;
using espk::SimDuration;
using espk::SimTime;

// Length of the PCM loop each channel replays. Long enough that the sync
// window never compares a loop with itself at a short lag.
constexpr SimDuration kPcmLoop = Seconds(4);

// Merged view of every station's lateness histogram (all share one bucket
// layout); quantiles interpolate within a bucket like Histogram::Percentile.
class MergedHistogram {
 public:
  void Add(const espk::Histogram& h) {
    if (counts_.empty()) {
      lo_ = h.lo();
      hi_ = h.hi();
      counts_.assign(h.buckets().size(), 0);
    }
    if (h.buckets().size() != counts_.size()) {
      return;
    }
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += h.buckets()[i];
    }
    under_ += h.underflow();
    over_ += h.overflow();
  }

  double Quantile(double q) const {
    const int64_t total =
        under_ + over_ + std::accumulate(counts_.begin(), counts_.end(),
                                         int64_t{0});
    if (total == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(total);
    double seen = static_cast<double>(under_);
    if (target <= seen) {
      return lo_;
    }
    const double width =
        (hi_ - lo_) / static_cast<double>(std::max<size_t>(1, counts_.size()));
    for (size_t i = 0; i < counts_.size(); ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0 && seen + c >= target) {
        return lo_ + width * (static_cast<double>(i) + (target - seen) / c);
      }
      seen += c;
    }
    return hi_;
  }

 private:
  double lo_ = 0.0;
  double hi_ = 0.0;
  std::vector<int64_t> counts_;
  int64_t under_ = 0;
  int64_t over_ = 0;
};

// Barrier probe registered before the telemetry planes: epoch count and the
// per-zone run / barrier-wait wall time the ShardGroup measures while a hook
// is registered.
class EpochProbe : public espk::ShardGroup::BarrierHook {
 public:
  EpochProbe(int zones, int threads) : zones_(zones), threads_(threads) {}

  void OnBarrier(const espk::ShardGroup::EpochRecord& record) override {
    fired_at_ = Clock::now();
    uint64_t phase = 0;
    for (int z = 0; z < zones_; ++z) {
      const auto& s = record.zones[z];
      run_ns_ += s.run_wall_ns;
      wait_ns_ += s.barrier_wait_ns;
      phase = std::max(phase, s.run_wall_ns + s.barrier_wait_ns);
    }
    phase_ns_ += phase;
  }

  Clock::time_point fired_at() const { return fired_at_; }
  double run_ms() const { return static_cast<double>(run_ns_) / 1e6; }
  double wait_ms() const { return static_cast<double>(wait_ns_) / 1e6; }
  // Share of the executor's thread-time spent running zones.
  double efficiency() const {
    const double capacity = static_cast<double>(std::min(threads_, zones_)) *
                            static_cast<double>(phase_ns_);
    return capacity > 0 ? static_cast<double>(run_ns_) / capacity : 0.0;
  }

 private:
  int zones_;
  int threads_;
  Clock::time_point fired_at_;
  uint64_t run_ns_ = 0;
  uint64_t wait_ns_ = 0;
  uint64_t phase_ns_ = 0;
};

// Registered after the planes: hooks fire in registration order, so the gap
// since the EpochProbe fired is the ZoneCollector's barrier work (trace
// merge, span flush, health sampling).
class CollectorProbe : public espk::ShardGroup::BarrierHook {
 public:
  explicit CollectorProbe(const EpochProbe* before) : before_(before) {}
  void OnBarrier(const espk::ShardGroup::EpochRecord&) override {
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - before_->fired_at())
               .count();
  }
  double ms() const { return static_cast<double>(ns_) / 1e6; }

 private:
  const EpochProbe* before_;
  int64_t ns_ = 0;
};

std::string ChannelName(int c) { return "ch-" + std::to_string(c); }

// Speaker i starts on channel (i / zones) % channels, so with round-robin
// zone placement every zone carries every channel.
int InitialChannel(const WorkloadSpec& spec, size_t i) {
  return static_cast<int>((i / static_cast<size_t>(spec.zones)) %
                          static_cast<size_t>(spec.channels));
}

double MsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

}  // namespace

bool MakeSpec(const std::string& name, bool tiny, int nproc,
              WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "fleet") {
    s.channels = 1;
    s.speakers = tiny ? 100 : 10000;
    s.zones = 4;
    s.check_threads = std::clamp(nproc, 1, 4);
    s.audio = espk::AudioConfig::PhoneQuality();
    s.packet_frames = 32;  // 4 ms packets.
    s.chunk_frames = 1600;
    s.codec = espk::CodecId::kRaw;
    s.decode_speed_factor = 0.02;
    s.round_sim = tiny ? Milliseconds(400) : Seconds(1);
    s.slice = Milliseconds(40);  // 10 packets.
    s.replay_sim = tiny ? Milliseconds(400) : Seconds(2);
  } else if (name == "studio") {
    s.channels = 8;
    s.speakers = 16;  // 2 per channel.
    s.zones = 1;
    s.audio = espk::AudioConfig::CdQuality();
    s.packet_frames = 4096;
    s.chunk_frames = 4410;
    s.codec = espk::CodecId::kVorbix;
    s.quality = 5;
    s.decode_speed_factor = 0.05;
    s.round_sim = tiny ? Seconds(2) : Seconds(30);
    s.slice = espk::FramesToDuration(2 * s.packet_frames, s.audio.sample_rate);
    s.sync_search = Milliseconds(2);
    s.replay_sim = tiny ? Seconds(1) : Seconds(6);
  } else if (name == "observed") {
    s.channels = 4;
    s.speakers = tiny ? 40 : 1000;
    s.zones = 4;
    s.audio = espk::AudioConfig::MidQuality();
    s.packet_frames = 512;  // ~23 ms packets.
    s.chunk_frames = 2205;
    s.codec = espk::CodecId::kRaw;
    s.decode_speed_factor = 0.02;
    s.loss = 0.01;
    s.jitter = espk::Microseconds(200);
    s.join_latency = Milliseconds(1);
    s.spans = true;
    s.health = true;
    s.churn_period = Milliseconds(500);
    s.churn_percent = 5;
    s.round_sim = Seconds(4);
    s.slice = espk::FramesToDuration(s.packet_frames, s.audio.sample_rate);
    s.replay_sim = tiny ? Milliseconds(500) : Seconds(2);
  } else {
    return false;
  }
  *spec = s;
  return true;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  const auto t0 = Clock::now();
  Inputs in;
  in.seed = seed;
  const int64_t frames =
      espk::DurationToFrames(kPcmLoop, spec.audio.sample_rate);
  for (int c = 0; c < spec.channels; ++c) {
    espk::MusicLikeGenerator gen(seed * 1000003ull + static_cast<uint64_t>(c));
    auto pcm = std::make_shared<std::vector<float>>();
    gen.Generate(frames, spec.audio.channels, spec.audio.sample_rate,
                 pcm.get());
    in.pcm.push_back(std::move(pcm));
  }
  if (spec.churn_period > 0) {
    espk::Prng rng(seed ^ 0x6368757267ull);
    const size_t n = static_cast<size_t>(spec.speakers) *
                     static_cast<size_t>(spec.churn_percent) / 100;
    // Speaker 0 never moves: MeasureSync compares every speaker with it.
    std::vector<size_t> order(static_cast<size_t>(spec.speakers) - 1);
    for (SimTime t = spec.churn_period; t < spec.round_sim;
         t += spec.churn_period) {
      std::iota(order.begin(), order.end(), size_t{1});
      for (size_t i = 0; i < n; ++i) {  // Partial Fisher-Yates.
        const size_t j = i + rng.NextBelow(order.size() - i);
        std::swap(order[i], order[j]);
      }
      in.churn.emplace_back(order.begin(),
                            order.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
  in.generate_s = SecondsSince(t0);
  return in;
}

void ReplayGenerator::Generate(int64_t frames, int channels, int /*rate*/,
                               std::vector<float>* out) {
  const auto t0 = busy_ns_ != nullptr ? Clock::now() : Clock::time_point{};
  const std::vector<float>& pcm = *pcm_;
  size_t want = static_cast<size_t>(frames) * static_cast<size_t>(channels);
  out->reserve(out->size() + want);
  while (want > 0) {
    const size_t n = std::min(want, pcm.size() - pos_);
    out->insert(out->end(), pcm.begin() + static_cast<std::ptrdiff_t>(pos_),
                pcm.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ = (pos_ + n) % pcm.size();
    want -= n;
  }
  if (busy_ns_ != nullptr) {
    *busy_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - t0)
                     .count();
  }
}

bool Outcome::SameAs(const Outcome& o) const {
  return packets_sent == o.packets_sent && deliveries == o.deliveries &&
         deliveries_lost == o.deliveries_lost &&
         queue_drops == o.queue_drops && data_packets == o.data_packets &&
         chunks_played == o.chunks_played && late_drops == o.late_drops &&
         overflow_drops == o.overflow_drops &&
         duplicate_drops == o.duplicate_drops &&
         waiting_drops == o.waiting_drops &&
         decode_errors == o.decode_errors && bad_packets == o.bad_packets &&
         (max_skew_ms < 0 || o.max_skew_ms < 0 ||
          (max_skew_ms == o.max_skew_ms && sync_pairs == o.sync_pairs));
}

std::string Outcome::Describe() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "sent=%llu deliveries=%llu lost=%llu played=%llu late=%llu "
                "overflow=%llu dup=%llu waiting=%llu skew_ms=%.4f pairs=%d",
                static_cast<unsigned long long>(packets_sent),
                static_cast<unsigned long long>(deliveries),
                static_cast<unsigned long long>(deliveries_lost),
                static_cast<unsigned long long>(chunks_played),
                static_cast<unsigned long long>(late_drops),
                static_cast<unsigned long long>(overflow_drops),
                static_cast<unsigned long long>(duplicate_drops),
                static_cast<unsigned long long>(waiting_drops), max_skew_ms,
                sync_pairs);
  return buf;
}

RoundResult RunRound(const WorkloadSpec& spec, const Inputs& inputs,
                     const RoundOptions& options, BenchTrace* trace) {
  RoundResult r;
  const bool traced = options.traced;
  trace->set_trace_id(options.index);
  BenchTrace::Scope round_span(trace, "round");
  int64_t generate_ns = 0;
  std::vector<double> add_speaker_us;
  std::vector<double> subscribe_us;
  if (traced) {
    add_speaker_us.reserve(static_cast<size_t>(spec.speakers));
    subscribe_us.reserve(static_cast<size_t>(spec.speakers) * 2);
  }
  double create_channel_ms = 0.0;
  double enable_planes_ms = 0.0;

  // Declared before the system so they outlive its shard group.
  EpochProbe epoch_probe(spec.zones, options.threads);
  CollectorProbe collector_probe(&epoch_probe);
  const bool probe_epochs = traced && spec.zones > 1;
  const bool probe_collector = probe_epochs && (spec.spans || spec.health);

  // ------------------------------------------------------------ setup --
  const auto setup_t0 = Clock::now();
  const int setup_span = trace->Begin("setup");
  espk::SystemOptions sys;
  sys.lan.loss_probability = spec.loss;
  sys.lan.jitter = spec.jitter;
  sys.lan.join_latency = spec.join_latency;
  sys.lan.seed = inputs.seed;
  sys.sharded.zones = spec.zones;
  sys.sharded.threads = options.threads;
  auto system = std::make_unique<espk::EthernetSpeakerSystem>(sys);
  if (probe_epochs) {
    system->shards()->AddBarrierHook(&epoch_probe);
  }

  std::vector<espk::Channel*> channels;
  for (int c = 0; c < spec.channels; ++c) {
    espk::RebroadcasterOptions rb;
    rb.codec_override = spec.codec;
    rb.quality = spec.quality;
    rb.packet_frames = spec.packet_frames;
    const auto t0 = Clock::now();
    BenchTrace::Scope span(trace, "core.create_channel");
    espk::Result<espk::Channel*> ch = system->CreateChannel(ChannelName(c), rb);
    create_channel_ms += MsSince(t0);
    if (!ch.ok()) {
      r.failures.push_back("CreateChannel failed: " + ch.status().ToString());
      return r;
    }
    channels.push_back(*ch);
  }
  std::vector<int> current(static_cast<size_t>(spec.speakers));
  for (int i = 0; i < spec.speakers; ++i) {
    espk::SpeakerOptions so;
    so.name = "es-" + std::to_string(i);
    so.decode_speed_factor = spec.decode_speed_factor;
    auto t0 = Clock::now();
    {
      BenchTrace::Scope span(trace, "core.add_speaker");
      if (!system->AddSpeaker(so).ok()) {
        r.failures.push_back("AddSpeaker failed");
        return r;
      }
    }
    if (traced) {
      add_speaker_us.push_back(MsSince(t0) * 1e3);
    }
    const auto idx = static_cast<size_t>(i);
    current[idx] = InitialChannel(spec, idx);
    t0 = Clock::now();
    BenchTrace::Scope span(trace, "mgmt.subscribe");
    const espk::Status st =
        system->SubscribeSpeaker(idx, ChannelName(current[idx]));
    if (traced) {
      subscribe_us.push_back(MsSince(t0) * 1e3);
    }
    if (!st.ok()) {
      r.failures.push_back("SubscribeSpeaker failed: " + st.ToString());
      return r;
    }
  }
  std::vector<espk::PlayerApp*> players;
  for (int c = 0; c < spec.channels; ++c) {
    espk::PlayerAppOptions po;
    po.config = spec.audio;
    po.chunk_frames = spec.chunk_frames;
    BenchTrace::Scope span(trace, "core.start_player");
    espk::Result<espk::PlayerApp*> player = system->StartPlayer(
        channels[static_cast<size_t>(c)],
        std::make_unique<ReplayGenerator>(inputs.pcm[static_cast<size_t>(c)],
                                          traced ? &generate_ns : nullptr),
        po);
    if (!player.ok()) {
      r.failures.push_back("StartPlayer failed: " + player.status().ToString());
      return r;
    }
    players.push_back(*player);
  }
  {
    const auto t0 = Clock::now();
    BenchTrace::Scope span(trace, "core.enable_planes");
    if (spec.spans) {
      system->EnableSpanTracing();
    }
    if (spec.health) {
      // Default sampler and rule set, except: the planned churn starves each
      // moved speaker's buffer until the next control packet, and which
      // speakers the seed moves decided how many starvation alerts fired
      // (11-21), each dumping a ~100 ms postmortem; and the barrier-stall
      // rule reads wall-clock waits, so a busy host fired it. Both made the
      // workload's cost depend on the seed and the host rather than on the
      // code, so those rules are set never to fire.
      espk::EthernetSpeakerSystem::HealthRuleDefaults rules;
      rules.jitter_low_watermark_bytes = 0.0;
      rules.silence_ms_per_sec = 1000.0;
      rules.runtime_rules = false;
      system->EnableHealthMonitoring(espk::HealthOptions{}, rules);
    }
    enable_planes_ms = MsSince(t0);
  }
  if (probe_collector) {
    system->shards()->AddBarrierHook(&collector_probe);
  }
  trace->End(setup_span);
  r.setup_s = SecondsSince(setup_t0);
  if (options.setup_only) {
    return r;
  }

  // -------------------------------------------------------------- run --
  // LAN conservation: every multicast a channel sends is handed to each
  // member of its group at send time, lost or not. Membership only changes
  // at churn instants (taking effect join_latency later), so each slice is
  // bounded by its start and end membership; static slices are exact.
  const bool membership_moves = spec.churn_period > 0 || spec.join_latency > 0;
  auto sent_by = [&](size_t c) {
    const auto& st = channels[c]->rebroadcaster->stats();
    return st.data_packets + st.control_packets;
  };
  auto members_of = [&](size_t c) {
    return static_cast<uint64_t>(
        system->lan()->GroupMemberCount(channels[c]->group));
  };
  uint64_t expect_lo = 0;
  uint64_t expect_hi = 0;
  std::vector<uint64_t> sent_before(channels.size(), 0);
  std::vector<uint64_t> members_before(channels.size(), 0);
  auto snapshot = [&] {
    for (size_t c = 0; c < channels.size(); ++c) {
      sent_before[c] = sent_by(c);
      members_before[c] = members_of(c);
    }
  };
  auto account = [&] {
    for (size_t c = 0; c < channels.size(); ++c) {
      const uint64_t sent = sent_by(c) - sent_before[c];
      const uint64_t m = members_of(c);
      expect_lo += std::min(m, members_before[c]) * sent;
      expect_hi += std::max(m, members_before[c]) * sent;
    }
  };
  if (membership_moves) {
    snapshot();
  }

  const uint64_t allocs0 = AllocCount();
  size_t churn_tick = 0;
  SimTime t = 0;
  while (t < spec.round_sim) {
    const SimTime next = std::min(t + spec.slice, spec.round_sim);
    const auto s0 = Clock::now();
    BenchTrace::Scope slice_span(trace, "slice");
    // Churn tick k applies at the first slice boundary at or after
    // k * churn_period.
    if (churn_tick < inputs.churn.size() &&
        t >= static_cast<SimTime>(churn_tick + 1) * spec.churn_period) {
      BenchTrace::Scope churn_span(trace, "mgmt.churn");
      for (size_t idx : inputs.churn[churn_tick]) {
        const int to = (current[idx] + 1) % spec.channels;
        const auto c0 = Clock::now();
        espk::Status st =
            system->UnsubscribeSpeaker(idx, ChannelName(current[idx]));
        if (st.ok()) {
          st = system->SubscribeSpeaker(idx, ChannelName(to));
        }
        if (traced) {
          subscribe_us.push_back(MsSince(c0) * 1e3 / 2.0);
        }
        if (!st.ok()) {
          r.failures.push_back("churn failed: " + st.ToString());
          return r;
        }
        current[idx] = to;
      }
      ++churn_tick;
    }
    system->RunUntil(next);
    r.slice_ms.push_back(MsSince(s0));
    r.run_s += r.slice_ms.back() / 1e3;
    if (membership_moves) {
      account();
      snapshot();
    }
    t = next;
  }
  const uint64_t allocs = AllocCount() - allocs0;
  r.sim_s = espk::ToSecondsF(spec.round_sim);

  // ---------------------------------------------------------- collect --
  const int collect_span = trace->Begin("collect");
  Outcome& o = r.outcome;
  const espk::SegmentStats& lan = system->lan()->stats();
  o.packets_sent = lan.packets_sent;
  o.deliveries = lan.deliveries;
  o.deliveries_lost = lan.deliveries_lost;
  o.queue_drops = lan.packets_dropped_queue;
  if (!membership_moves) {
    for (size_t c = 0; c < channels.size(); ++c) {
      expect_lo += members_of(c) * sent_by(c);
    }
    expect_hi = expect_lo;
  }
  if (o.queue_drops == 0 &&
      (o.deliveries < expect_lo || o.deliveries > expect_hi)) {
    r.failures.push_back("LAN conservation broken: " +
                         std::to_string(o.deliveries) +
                         " handoffs, members x packets sent in [" +
                         std::to_string(expect_lo) + ", " +
                         std::to_string(expect_hi) + "]");
  }

  std::vector<bool> moved(static_cast<size_t>(spec.speakers), false);
  for (const auto& tick : inputs.churn) {
    for (size_t idx : tick) {
      moved[idx] = true;
    }
  }
  uint64_t silent = 0;
  const auto& speakers = system->speakers();
  for (size_t i = 0; i < speakers.size(); ++i) {
    const espk::SpeakerStats& st = speakers[i]->stats();
    o.data_packets += st.data_packets;
    o.chunks_played += st.chunks_played;
    o.late_drops += st.late_drops;
    o.overflow_drops += st.overflow_drops;
    o.duplicate_drops += st.duplicate_drops;
    o.waiting_drops += st.waiting_drops;
    o.decode_errors += st.decode_errors;
    o.bad_packets += st.bad_packets;
    // A speaker whose every control packet was lost on a lossy LAN cannot
    // decode anything (§2.3); any other speaker must have played.
    if (!moved[i] && st.chunks_played == 0 && st.control_packets > 0) {
      ++silent;
    }
  }
  if (silent > 0) {
    r.failures.push_back(std::to_string(silent) +
                         " speakers subscribed for the whole round heard a "
                         "control packet but played 0 chunks");
  }
  if (o.chunks_played == 0) {
    r.failures.push_back("no chunk was played");
  }

  if (options.measure_sync) {
    BenchTrace::Scope span(trace, "measure_sync");
    const espk::EthernetSpeakerSystem::SyncReport sync = system->MeasureSync(
        spec.round_sim - spec.sync_window, spec.sync_window, spec.sync_search,
        /*all_pairs=*/false);
    o.max_skew_ms = sync.max_skew_seconds * 1e3;
    o.sync_pairs = sync.speaker_pairs;
    if (sync.speaker_pairs == 0) {
      r.failures.push_back("MeasureSync compared no speaker pairs");
    }
  }

  uint64_t traces_retained = 0;
  if (espk::SpanPlane* plane = system->spans()) {
    BenchTrace::Scope span(trace, "obs.span_drain");
    plane->Drain();
    traces_retained = plane->assembler()->RetainedTraces().size();
    if (traces_retained == 0) {
      r.failures.push_back("span plane retained 0 traces");
    }
  }

  if (traced) {
    auto& L = r.layer;
    uint64_t events = 0;
    for (int z = 0; z < system->zones(); ++z) {
      events += system->zone_sim(z)->events_processed();
    }
    L["sim.events"] = static_cast<double>(events);
    L["sim.epochs"] = static_cast<double>(system->shards()->epochs_run());
    L["sim.epoch_run_ms"] = epoch_probe.run_ms();
    L["sim.barrier_wait_ms"] = epoch_probe.wait_ms();
    L["sim.parallel_efficiency"] = epoch_probe.efficiency();
    L["sim.messages_posted"] =
        static_cast<double>(system->shards()->messages_posted());
    L["sim.ring_spills"] = static_cast<double>(system->shards()->ring_spills());

    L["lan.deliveries"] = static_cast<double>(lan.deliveries);
    L["lan.deliveries_lost"] = static_cast<double>(lan.deliveries_lost);
    L["lan.queue_drops"] = static_cast<double>(lan.packets_dropped_queue);
    L["lan.bytes_on_wire"] = static_cast<double>(lan.bytes_on_wire);
    L["lan.packets_sent"] = static_cast<double>(lan.packets_sent);

    L["speaker.data_packets"] = static_cast<double>(o.data_packets);
    L["speaker.chunks_played"] = static_cast<double>(o.chunks_played);
    L["speaker.late_drops"] = static_cast<double>(o.late_drops);
    L["speaker.overflow_drops"] = static_cast<double>(o.overflow_drops);
    L["speaker.duplicate_drops"] = static_cast<double>(o.duplicate_drops);
    L["speaker.waiting_drops"] = static_cast<double>(o.waiting_drops);
    uint64_t received = 0;
    for (const auto& sp : speakers) {
      received += sp->stats().packets_received;
    }
    L["speaker.packets_received"] = static_cast<double>(received);
    MergedHistogram lateness;
    for (const auto& station : system->stations()) {
      const espk::Metric* m = station->registry->Find("speaker.lateness_ms");
      if (m != nullptr && m->kind() == espk::Metric::Kind::kHistogram) {
        lateness.Add(
            static_cast<const espk::HistogramMetric*>(m)->histogram());
      }
    }
    L["speaker.lateness_ms_p50"] = lateness.Quantile(0.50);
    L["speaker.lateness_ms_p99"] = lateness.Quantile(0.99);

    double encode_s = 0.0;
    uint64_t payload = 0;
    uint64_t pcm_in = 0;
    uint64_t data_sent = 0;
    uint64_t control_sent = 0;
    for (espk::Channel* ch : channels) {
      encode_s += ch->rebroadcaster->encode_cpu_seconds();
      payload += ch->rebroadcaster->stats().payload_bytes;
      pcm_in += ch->rebroadcaster->stats().pcm_bytes_in;
      data_sent += ch->rebroadcaster->stats().data_packets;
      control_sent += ch->rebroadcaster->stats().control_packets;
    }
    L["codec.encode_cpu_ms"] = encode_s * 1e3;
    L["codec.compression_ratio"] =
        pcm_in > 0 ? static_cast<double>(payload) / static_cast<double>(pcm_in)
                   : 0.0;
    L["codec.frames_encoded"] = static_cast<double>(
        pcm_in / static_cast<uint64_t>(spec.audio.bytes_per_frame()));
    L["rebroadcast.data_packets"] = static_cast<double>(data_sent);
    L["rebroadcast.control_packets"] = static_cast<double>(control_sent);

    uint64_t bytes_written = 0;
    for (espk::PlayerApp* p : players) {
      bytes_written += static_cast<uint64_t>(p->frames_written()) *
                       static_cast<uint64_t>(spec.audio.bytes_per_frame());
    }
    L["kernel.context_switches"] =
        static_cast<double>(system->kernel()->stats().context_switches);
    L["kernel.bytes_written"] = static_cast<double>(bytes_written);

    uint64_t trace_events = 0;
    uint64_t trace_dropped = 0;
    for (int z = 0; z < system->zones(); ++z) {
      trace_events += system->zone_tracer(z)->recorded();
      trace_dropped += system->zone_tracer(z)->dropped();
    }
    L["obs.trace_events"] = static_cast<double>(trace_events);
    L["obs.trace_dropped"] = static_cast<double>(trace_dropped);
    uint64_t spans_recorded = 0;
    uint64_t spans_dropped = 0;
    if (const espk::SpanPlane* plane = system->spans()) {
      for (const espk::SpanRecorder* rec : plane->recorders()) {
        spans_recorded += rec->appended();
        spans_dropped += rec->dropped();
      }
    }
    L["obs.spans_recorded"] = static_cast<double>(spans_recorded);
    L["obs.spans_dropped"] = static_cast<double>(spans_dropped);
    L["obs.traces_retained"] = static_cast<double>(traces_retained);
    L["obs.collector_ms"] = probe_collector ? collector_probe.ms() : 0.0;
    if (espk::HealthMonitor* health = system->health()) {
      L["obs.alerts_fired"] =
          static_cast<double>(health->engine()->fired_total());
      L["obs.postmortems"] =
          static_cast<double>(health->recorder()->recorded());
    }

    L["core.add_speaker_us_p50"] = Quantile(add_speaker_us, 0.50);
    L["core.add_speaker_us_p95"] = Quantile(add_speaker_us, 0.95);
    L["core.create_channel_ms"] = create_channel_ms;
    L["core.enable_planes_ms"] = enable_planes_ms;
    L["core.metric_entries"] = static_cast<double>(system->metrics()->size());
    L["core.allocs_per_delivery"] =
        lan.deliveries > 0 ? static_cast<double>(allocs) /
                                 static_cast<double>(lan.deliveries)
                           : 0.0;
    L["mgmt.subscribe_us"] = Quantile(subscribe_us, 0.50);
    double subscribe_ms = 0.0;
    for (size_t i = static_cast<size_t>(spec.speakers); i < subscribe_us.size();
         ++i) {
      subscribe_ms += subscribe_us[i] * 2.0 / 1e3;  // Churn calls only.
    }
    L["mgmt.churn_ms"] = subscribe_ms;
    L["audio.generate_ms"] = static_cast<double>(generate_ns) / 1e6;
  }
  trace->End(collect_span);
  BenchTrace::Scope teardown_span(trace, "teardown");
  system.reset();

  return r;
}

}  // namespace perfbench
