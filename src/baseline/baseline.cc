#include "src/baseline/baseline.h"

#include <algorithm>

#include "src/audio/sample_convert.h"
#include "src/base/logging.h"

namespace espk {
namespace {

// The UnsyncReceiver's fixed local buffering before playback starts.
constexpr SimDuration kBufferDelay = Milliseconds(200);

}  // namespace

UnicastStreamServer::UnicastStreamServer(
    Simulation* sim, Transport* nic, const AudioConfig& config,
    std::unique_ptr<SignalGenerator> generator, int64_t packet_frames)
    : sim_(sim),
      nic_(nic),
      config_(config),
      generator_(std::move(generator)),
      packet_frames_(packet_frames),
      task_(sim, config.BytesToDuration(config.FramesToBytes(packet_frames)),
            [this](SimTime now) { Tick(now); }) {}

void UnicastStreamServer::AddListener(NodeId node) { listeners_.insert(node); }

void UnicastStreamServer::Start() { task_.Start(); }
void UnicastStreamServer::Stop() { task_.Stop(); }

void UnicastStreamServer::Tick(SimTime now) {
  if (listeners_.empty()) {
    return;
  }
  // One fresh packet per tick, then one unicast transmission per listener —
  // the defining cost of the unicast model is N wire sends (the payload
  // itself is serialized once and shared as a slice).
  std::vector<float> samples;
  generator_->Generate(packet_frames_, config_.channels, config_.sample_rate,
                       &samples);
  Bytes payload = EncodeFromFloat(samples, config_.encoding);
  DataPacket packet;
  packet.stream_id = 1;
  packet.seq = next_seq_++;
  packet.play_deadline = now + Milliseconds(200);
  packet.frame_count = static_cast<uint32_t>(packet_frames_);
  packet.payload = std::move(payload);
  BufferSlice wire = SerializePacketSlice(packet);

  ControlPacket control;
  control.stream_id = 1;
  control.producer_clock = now;
  control.config = config_;
  control.codec = CodecId::kRaw;
  BufferSlice control_wire =
      next_seq_ % 16 == 1 ? SerializePacketSlice(control) : BufferSlice{};

  for (NodeId listener : listeners_) {
    if (!control_wire.empty()) {
      (void)nic_->SendUnicast(listener, control_wire);
    }
    (void)nic_->SendUnicast(listener, wire);
    ++packets_sent_;
  }
}

UnsyncReceiver::UnsyncReceiver(Simulation* sim, Transport* nic)
    : sim_(sim), nic_(nic) {
  nic_->SetReceiveHandler([this](const Datagram& d) { OnDatagram(d); });
}

Status UnsyncReceiver::Tune(GroupId group) {
  return nic_->JoinGroup(group);
}

void UnsyncReceiver::OnDatagram(const Datagram& datagram) {
  Result<ParsedPacket> parsed = ParsePacket(datagram.payload);
  if (!parsed.ok()) {
    return;
  }
  if (const auto* control = std::get_if<ControlPacket>(&parsed->packet)) {
    if (!config_.has_value() || *config_ != control->config) {
      Result<std::unique_ptr<AudioDecoder>> decoder =
          CreateDecoder(control->codec, control->config, control->quality);
      if (!decoder.ok()) {
        return;
      }
      config_ = control->config;
      decoder_ = std::move(*decoder);
      recorder_ = std::make_unique<OutputRecorder>(config_->sample_rate,
                                                   config_->channels);
      next_play_time_ = 0;
    }
    return;
  }
  const auto* data = std::get_if<DataPacket>(&parsed->packet);
  if (data == nullptr || decoder_ == nullptr) {
    return;
  }
  Result<std::vector<float>> samples = decoder_->DecodePacket(data->payload);
  if (!samples.ok()) {
    return;
  }
  // Arrival-clocked playback: start kBufferDelay after a chunk arrives,
  // or back-to-back with the previous chunk, whichever is later. Producer
  // timestamps are ignored entirely — this is what keeps two such radios
  // from ever agreeing with each other.
  SimTime now = sim_->now();
  SimTime start = std::max(now + kBufferDelay, next_play_time_);
  SimDuration duration =
      FramesToDuration(data->frame_count, config_->sample_rate);
  next_play_time_ = start + duration;
  ++chunks_played_;
  sim_->ScheduleAt(start, [this, start,
                           samples = std::move(*samples)]() mutable {
    recorder_->Play(start, std::move(samples), 1.0f);
  });
}

}  // namespace espk
