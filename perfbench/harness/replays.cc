#include "harness/replays.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/vad.h"
#include "src/lan/segment.h"
#include "src/obs/trace.h"
#include "src/proto/wire.h"
#include "src/rebroadcast/player_app.h"
#include "src/rebroadcast/rebroadcaster.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"
#include "src/speaker/speaker.h"
#include "src/speaker/speaker_zone.h"

namespace perfbench {
namespace {

using espk::BufferSlice;
using espk::GroupId;
using espk::SimTime;

constexpr int kReps = 3;
constexpr espk::Pid kReaderPid = 2000;
constexpr espk::Pid kPlayerPid = 2001;
// Source node stamped on replayed datagrams (never a speaker's own NIC).
constexpr espk::NodeId kProducerNode = 0xFFFF;
// Caps on deliveries (packets x members) per fan-out / speaker replay rep.
constexpr uint64_t kMaxFanoutDeliveries = 2'000'000;
constexpr uint64_t kMaxSpeakerDeliveries = 1'000'000;

struct Captured {
  SimTime at = 0;
  GroupId group = 0;
  BufferSlice wire;
};

// A Transport that keeps every multicast it is asked to send, stamped with
// the simulated send time.
class CaptureTransport : public espk::Transport {
 public:
  explicit CaptureTransport(espk::Simulation* sim) : sim_(sim) {}
  espk::NodeId node_id() const override { return 1; }
  espk::Status JoinGroup(GroupId) override { return espk::OkStatus(); }
  espk::Status LeaveGroup(GroupId) override { return espk::OkStatus(); }
  espk::Status SendMulticast(GroupId group, BufferSlice payload,
                             espk::TraceTag) override {
    packets_.push_back(Captured{sim_->now(), group, std::move(payload)});
    return espk::OkStatus();
  }
  espk::Status SendUnicast(espk::NodeId, BufferSlice,
                           espk::TraceTag) override {
    return espk::OkStatus();
  }
  void SetReceiveHandler(ReceiveHandler) override {}
  std::vector<Captured>& packets() { return packets_; }

 private:
  espk::Simulation* sim_;
  std::vector<Captured> packets_;
};

// Zone sink that only counts: the fan-out replay measures the segment's
// per-member work and the cross-shard handoff, not the speakers.
class CountingSink : public espk::ZoneSink {
 public:
  void DeliverBatch(const espk::Datagram&,
                    std::vector<espk::ZoneDeliveryEntry> entries) override {
    delivered_ += entries.size();
  }
  uint64_t delivered() const { return delivered_; }

 private:
  uint64_t delivered_ = 0;
};

double NsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e9; }

espk::PlayerAppOptions PlayerOptions(const WorkloadSpec& spec) {
  espk::PlayerAppOptions po;
  po.config = spec.audio;
  po.chunk_frames = spec.chunk_frames;
  return po;
}

// Player -> VAD -> reader, no network: wall ns per KB moved.
double ReplayVad(const WorkloadSpec& spec, const Inputs& inputs) {
  espk::Simulation sim;
  espk::SimKernel kernel(&sim);
  if (!espk::CreateVadPair(&kernel, 0).ok()) {
    return 0.0;
  }
  espk::PlayerAppOptions po = PlayerOptions(spec);
  po.total_frames =
      espk::DurationToFrames(spec.replay_sim, spec.audio.sample_rate);
  espk::Result<int> fd = kernel.Open(kReaderPid, "/dev/vadm0");
  if (!fd.ok()) {
    return 0.0;
  }
  bool reading = true;
  std::function<void()> read_next = [&] {
    kernel.Read(kReaderPid, *fd, 1 << 20,
                [&](espk::Result<espk::Bytes> frame) {
                  if (reading && frame.ok()) {
                    read_next();
                  }
                });
  };
  espk::PlayerApp player(&kernel, kPlayerPid, "/dev/vads0",
                         std::make_unique<ReplayGenerator>(
                             inputs.pcm[0], nullptr),
                         po);
  const auto t0 = Clock::now();
  read_next();
  if (!player.Start().ok()) {
    return 0.0;
  }
  const SimTime limit = spec.replay_sim * 20;
  while (!player.finished() && sim.now() < limit) {
    sim.RunFor(espk::Milliseconds(100));
  }
  const double ns = NsSince(t0);
  reading = false;
  player.Stop();
  (void)kernel.Close(kReaderPid, *fd);
  const double kb = static_cast<double>(player.frames_written()) *
                    spec.audio.bytes_per_frame() / 1024.0;
  return kb > 0 ? ns / kb : 0.0;
}

// One channel's producer (player -> VAD -> rebroadcaster) on a capturing
// transport. Returns wall ns per data packet with codec time and the VAD
// replay's estimate removed; fills `captured` with the sent datagrams.
double ReplayProducer(const WorkloadSpec& spec, const Inputs& inputs,
                      double vad_ns_per_kb, std::vector<Captured>* captured) {
  espk::Simulation sim;
  espk::SimKernel kernel(&sim);
  if (!espk::CreateVadPair(&kernel, 0).ok()) {
    return 0.0;
  }
  CaptureTransport transport(&sim);
  espk::RebroadcasterOptions rb;
  rb.codec_override = spec.codec;
  rb.quality = spec.quality;
  rb.packet_frames = spec.packet_frames;
  espk::Rebroadcaster producer(&kernel, kReaderPid, "/dev/vadm0", &transport,
                               rb);
  espk::PlayerApp player(&kernel, kPlayerPid, "/dev/vads0",
                         std::make_unique<ReplayGenerator>(inputs.pcm[0],
                                                           nullptr),
                         PlayerOptions(spec));
  const auto t0 = Clock::now();
  if (!producer.Start().ok() || !player.Start().ok()) {
    return 0.0;
  }
  sim.RunUntil(spec.replay_sim);
  double ns = NsSince(t0);
  player.Stop();
  producer.Stop();
  ns -= producer.encode_cpu_seconds() * 1e9;
  ns -= vad_ns_per_kb * static_cast<double>(player.frames_written()) *
        spec.audio.bytes_per_frame() / 1024.0;
  const uint64_t packets = producer.stats().data_packets;
  *captured = std::move(transport.packets());
  return packets > 0 ? std::max(0.0, ns) / static_cast<double>(packets) : 0.0;
}

double ReplayParse(const std::vector<Captured>& packets, bool* ok) {
  uint64_t parsed = 0;
  const auto t0 = Clock::now();
  while (parsed < 50000) {
    for (const Captured& p : packets) {
      if (!espk::ParsePacket(p.wire).ok()) {
        *ok = false;
      }
      ++parsed;
    }
  }
  return NsSince(t0) / static_cast<double>(parsed);
}

double ReplayEncode(const WorkloadSpec& spec, const Inputs& inputs, bool* ok) {
  auto encoder = espk::CreateEncoder(spec.codec, spec.audio, spec.quality);
  if (!encoder.ok()) {
    *ok = false;
    return 0.0;
  }
  const std::vector<float>& pcm = *inputs.pcm[0];
  const size_t block =
      static_cast<size_t>(spec.packet_frames) *
      static_cast<size_t>(spec.audio.channels);
  const int64_t target =
      espk::DurationToFrames(spec.replay_sim, spec.audio.sample_rate);
  std::vector<float> samples(block);
  int64_t frames = 0;
  size_t pos = 0;
  const auto t0 = Clock::now();
  while (frames < target) {
    if (pos + block > pcm.size()) {
      pos = 0;
    }
    std::copy(pcm.begin() + static_cast<std::ptrdiff_t>(pos),
              pcm.begin() + static_cast<std::ptrdiff_t>(pos + block),
              samples.begin());
    if (!(*encoder)->EncodePacket(samples).ok()) {
      *ok = false;
    }
    pos += block;
    frames += spec.packet_frames;
  }
  return NsSince(t0) / static_cast<double>(frames);
}

double ReplayDecode(const WorkloadSpec& spec,
                    const std::vector<Captured>& packets, bool* ok) {
  auto decoder = espk::CreateDecoder(spec.codec, spec.audio, spec.quality);
  if (!decoder.ok()) {
    *ok = false;
    return 0.0;
  }
  std::vector<BufferSlice> payloads;
  for (const Captured& p : packets) {
    espk::Result<espk::ParsedPacket> parsed = espk::ParsePacket(p.wire);
    if (parsed.ok()) {
      if (const auto* data = std::get_if<espk::DataPacket>(&parsed->packet)) {
        payloads.push_back(data->payload);
      }
    }
  }
  if (payloads.empty()) {
    *ok = false;
    return 0.0;
  }
  const int64_t target =
      espk::DurationToFrames(spec.replay_sim, spec.audio.sample_rate);
  int64_t frames = 0;
  const auto t0 = Clock::now();
  while (frames < target) {
    for (const BufferSlice& payload : payloads) {
      auto pcm = (*decoder)->DecodePacket(payload);
      if (!pcm.ok()) {
        *ok = false;
        return 0.0;
      }
      frames += static_cast<int64_t>(pcm->size()) / spec.audio.channels;
    }
  }
  return NsSince(t0) / static_cast<double>(frames);
}

// The speaker layer fed the captured datagrams at their send time plus the
// LAN's base delay: wall ns per speaker data packet, covering admission,
// decode, play and recording. A zoned workload replays through SpeakerZones
// holding all of one group's members, split across zones as in the real run
// (so the cache footprint and the per-batch parse match); a one-zone
// workload feeds a lone EthernetSpeaker, which parses every datagram.
double ReplaySpeaker(const WorkloadSpec& spec,
                     const std::vector<Captured>& packets, bool* ok) {
  if (packets.empty()) {
    *ok = false;
    return 0.0;
  }
  const bool zoned = spec.zones > 1;
  const int members = zoned ? std::max(1, spec.speakers / spec.channels) : 1;
  const size_t n = std::min<size_t>(
      packets.size(),
      std::max<uint64_t>(1, kMaxSpeakerDeliveries /
                                static_cast<uint64_t>(members)));
  espk::Simulation sim;
  espk::EthernetSegment segment(&sim, espk::SegmentConfig{});
  std::vector<std::unique_ptr<espk::SpeakerZone>> zones;
  std::vector<std::vector<espk::ZoneDeliveryEntry>> entries(
      static_cast<size_t>(spec.zones));
  for (int z = 0; z < spec.zones; ++z) {
    zones.push_back(std::make_unique<espk::SpeakerZone>(&sim));
  }
  espk::SpeakerOptions so;
  so.decode_speed_factor = spec.decode_speed_factor;
  std::vector<std::unique_ptr<espk::SimNic>> nics;
  std::vector<std::unique_ptr<espk::EthernetSpeaker>> speakers;
  for (int i = 0; i < members; ++i) {
    nics.push_back(segment.CreateNic());
    speakers.push_back(
        std::make_unique<espk::EthernetSpeaker>(&sim, nics.back().get(), so));
    if (!speakers.back()->Subscribe(packets.front().group).ok()) {
      *ok = false;
      return 0.0;
    }
    const auto z = static_cast<size_t>(i % spec.zones);
    entries[z].push_back(
        {zones[z]->AddSpeaker(nics.back().get(), speakers.back().get()), 0});
  }
  const espk::SimDuration delay = espk::SegmentConfig{}.base_delay;
  const auto t0 = Clock::now();
  for (size_t k = 0; k < n; ++k) {
    const Captured& p = packets[k];
    const SimTime arrival = p.at + delay;
    sim.RunUntil(arrival);
    espk::Datagram d;
    d.group = p.group;
    d.source = kProducerNode;
    d.payload = p.wire;
    if (!zoned) {
      speakers.front()->HandleDatagram(d);
      continue;
    }
    for (size_t z = 0; z < zones.size(); ++z) {
      for (espk::ZoneDeliveryEntry& e : entries[z]) {
        e.arrival = arrival;
      }
      zones[z]->DeliverBatch(d, entries[z]);
    }
  }
  sim.RunUntil(packets[n - 1].at + espk::Seconds(1));
  const double ns = NsSince(t0);
  uint64_t data_packets = 0;
  for (const auto& speaker : speakers) {
    const espk::SpeakerStats& st = speaker->stats();
    data_packets += st.data_packets;
    if (st.chunks_played == 0 || st.bad_packets > 0 || st.decode_errors > 0) {
      *ok = false;
    }
  }
  return data_packets > 0 ? ns / static_cast<double>(data_packets) : 0.0;
}

// SendMulticast of the captured packets into a standalone segment with the
// workload's members per group, zoned like the workload.
double ReplayFanout(const WorkloadSpec& spec,
                    const std::vector<Captured>& packets, bool* ok) {
  const int members = std::max(1, spec.speakers / spec.channels);
  espk::SegmentConfig cfg;
  cfg.loss_probability = spec.loss;
  cfg.jitter = spec.jitter;
  espk::ShardGroup::Options so;
  so.shards = spec.zones;
  so.lookahead = cfg.base_delay;
  espk::ShardGroup shards(so);
  espk::EthernetSegment segment(shards.sim(0), cfg);
  std::vector<CountingSink> sinks(static_cast<size_t>(spec.zones));
  if (spec.zones > 1) {
    segment.EnableSharding(&shards, 0);
    for (int z = 0; z < spec.zones; ++z) {
      segment.RegisterZoneSink(z, &sinks[static_cast<size_t>(z)]);
    }
  }
  auto producer = segment.CreateNic();
  std::vector<std::unique_ptr<espk::SimNic>> nics;
  const GroupId group = packets.front().group;
  for (int i = 0; i < members; ++i) {
    nics.push_back(segment.CreateNic());
    (void)nics.back()->JoinGroup(group);
    if (spec.zones > 1) {
      segment.AssignZone(nics.back().get(), i % spec.zones, i / spec.zones);
    } else {
      nics.back()->SetReceiveHandler([](const espk::Datagram&) {});
    }
  }
  const size_t n = std::min<size_t>(
      packets.size(),
      std::max<uint64_t>(1, kMaxFanoutDeliveries /
                                static_cast<uint64_t>(members)));
  // Sends run as events on the home shard, as the producer's do: a post to
  // another shard is only legal from inside an epoch.
  espk::SimNic* nic = producer.get();
  const auto t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    shards.sim(0)->ScheduleAt(packets[i].at, [nic, group, &packets, i] {
      (void)nic->SendMulticast(group, packets[i].wire);
    });
  }
  const SimTime end = packets[n - 1].at + espk::Milliseconds(10);
  if (spec.zones > 1) {
    shards.RunUntil(end);
  } else {
    shards.sim(0)->RunUntil(end);  // A one-zone system drives its loop.
  }
  const double ns = NsSince(t0);
  const espk::SegmentStats& st = segment.stats();
  if (spec.zones > 1) {
    uint64_t delivered = 0;
    for (const CountingSink& sink : sinks) {
      delivered += sink.delivered();
    }
    if (delivered != st.deliveries - st.deliveries_lost) {
      *ok = false;
    }
  }
  return st.deliveries > 0 ? ns / static_cast<double>(st.deliveries) : 0.0;
}

double ReplaySimEvents() {
  constexpr int kEvents = 200000;
  espk::Simulation sim;
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kEvents; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    sim.ScheduleAt(static_cast<SimTime>(lcg % espk::Seconds(1)),
                   [&sink] { ++sink; });
  }
  sim.Run();
  const double ns = NsSince(t0);
  return sink == kEvents ? ns / kEvents : 0.0;
}

// PacketTracer::Record into a default-sized ring with no observer, the way
// every speaker records receive/decode/play when no plane is attached.
double ReplayTracer() {
  constexpr int kEvents = 1'000'000;
  espk::Simulation sim;
  espk::PacketTracer tracer(&sim);
  const auto t0 = Clock::now();
  for (int i = 0; i < kEvents; ++i) {
    tracer.Record(1, static_cast<uint32_t>(i / 3),
                  espk::TraceStage::kSpeakerReceive,
                  static_cast<uint32_t>(i % 1000));
  }
  const double ns = NsSince(t0);
  return tracer.recorded() == kEvents ? ns / kEvents : 0.0;
}

template <typename F>
double MedianOf(BenchTrace* trace, const char* name, F f) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) {
    BenchTrace::Scope span(trace, name);
    v.push_back(f());
  }
  return Quantile(v, 0.5);
}

}  // namespace

int SpeakerBatchMembers(const WorkloadSpec& spec) {
  return spec.zones > 1
             ? std::max(1, spec.speakers / (spec.channels * spec.zones))
             : 1;
}

ReplayCosts RunReplays(const WorkloadSpec& spec, const Inputs& inputs,
                       BenchTrace* trace) {
  ReplayCosts c;
  BenchTrace::Scope all(trace, "replays");
  bool ok = true;
  c.vad_ns_per_kb = MedianOf(trace, "replay.kernel_vad",
                             [&] { return ReplayVad(spec, inputs); });
  std::vector<Captured> packets;
  c.rebroadcast_ns_per_packet =
      MedianOf(trace, "replay.rebroadcast", [&] {
        return ReplayProducer(spec, inputs, c.vad_ns_per_kb, &packets);
      });
  if (packets.empty()) {
    c.ok = false;
    c.error = "producer replay captured no packets";
    return c;
  }
  c.parse_ns_per_packet = MedianOf(trace, "replay.proto_parse",
                                   [&] { return ReplayParse(packets, &ok); });
  c.encode_ns_per_frame = MedianOf(
      trace, "replay.codec_encode", [&] { return ReplayEncode(spec, inputs, &ok); });
  c.decode_ns_per_frame = MedianOf(
      trace, "replay.codec_decode", [&] { return ReplayDecode(spec, packets, &ok); });
  c.speaker_ns_per_packet = MedianOf(
      trace, "replay.speaker", [&] { return ReplaySpeaker(spec, packets, &ok); });
  c.fanout_ns_per_delivery = MedianOf(
      trace, "replay.lan_fanout", [&] { return ReplayFanout(spec, packets, &ok); });
  c.sim_ns_per_event =
      MedianOf(trace, "replay.sim_events", [] { return ReplaySimEvents(); });
  c.trace_ns_per_event =
      MedianOf(trace, "replay.obs_tracer", [] { return ReplayTracer(); });
  if (!ok) {
    c.ok = false;
    c.error = "a layer replay rejected the workload's captured packets";
  }
  return c;
}

}  // namespace perfbench
