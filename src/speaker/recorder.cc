#include "src/speaker/recorder.h"

#include <algorithm>

#include "src/base/logging.h"

namespace espk {
namespace {

// Most missing packets one gap is padded with. Loss bursts are far shorter;
// a longer run of missing seqs is a forged or corrupt seq (or a producer
// restart), and padding it in full would allocate up to ~2^32 packets of
// silence for one CRC-valid datagram.
constexpr uint32_t kMaxGapFillPackets = 1000;

}  // namespace

StreamRecorder::StreamRecorder(Transport* nic) : nic_(nic) {
  nic_->SetReceiveHandler([this](const Datagram& d) { OnDatagram(d); });
}

Status StreamRecorder::StartRecording(GroupId group) {
  if (group_.has_value()) {
    return FailedPreconditionError("already recording");
  }
  ESPK_RETURN_IF_ERROR(nic_->JoinGroup(group));
  group_ = group;
  return OkStatus();
}

Status StreamRecorder::StopRecording() {
  if (!group_.has_value()) {
    return FailedPreconditionError("not recording");
  }
  ESPK_RETURN_IF_ERROR(nic_->LeaveGroup(*group_));
  group_.reset();
  return OkStatus();
}

void StreamRecorder::OnDatagram(const Datagram& datagram) {
  if (!group_.has_value() || datagram.group != *group_) {
    return;
  }
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
      // A config change starts a new program; recorders keep it simple and
      // restart the take (the old chunks no longer share a sample grid).
      config_ = control->config;
      decoder_ = std::move(*decoder);
      chunks_.clear();
    }
    return;
  }
  const auto* data = std::get_if<DataPacket>(&parsed->packet);
  if (data == nullptr || decoder_ == nullptr) {
    return;
  }
  // The key keeps seq's low 32 bits, so the previous seq is recoverable
  // from last_key_; the signed distance to it is correct across the wrap.
  const int64_t key =
      chunks_.empty()
          ? data->seq
          : last_key_ + static_cast<int32_t>(
                            data->seq - static_cast<uint32_t>(last_key_));
  if (chunks_.count(key) > 0) {
    ++stats_.duplicate_chunks;
    return;
  }
  Result<std::vector<float>> samples = decoder_->DecodePacket(data->payload);
  if (!samples.ok()) {
    ++stats_.decode_errors;
    return;
  }
  ++stats_.chunks_recorded;
  chunks_[key] = Chunk{std::move(*samples), data->frame_count};
  last_key_ = key;
}

PcmBuffer StreamRecorder::Assemble() const {
  PcmBuffer out;
  if (!config_.has_value() || chunks_.empty()) {
    return out;
  }
  out.channels = config_->channels;
  out.sample_rate = config_->sample_rate;
  int64_t expected_key = chunks_.begin()->first;
  // Sized from decoded audio, not the header's frame_count, so a forged
  // header cannot inflate the fill either.
  const size_t typical_samples = chunks_.begin()->second.samples.size();
  auto* mutable_stats = const_cast<RecorderStats*>(&stats_);
  mutable_stats->gaps_filled = 0;
  mutable_stats->frames_recorded = 0;
  for (const auto& [key, chunk] : chunks_) {
    // Fill lost packets with silence so later audio keeps its place.
    const auto missing = static_cast<uint32_t>(
        std::min<int64_t>(key - expected_key, kMaxGapFillPackets));
    out.samples.insert(out.samples.end(), missing * typical_samples, 0.0f);
    mutable_stats->frames_recorded += static_cast<int64_t>(
        missing * typical_samples / static_cast<size_t>(out.channels));
    mutable_stats->gaps_filled += missing;
    out.samples.insert(out.samples.end(), chunk.samples.begin(),
                       chunk.samples.end());
    mutable_stats->frames_recorded += chunk.frame_count;
    expected_key = key + 1;
  }
  return out;
}

Status StreamRecorder::ExportWav(const std::string& path) const {
  PcmBuffer pcm = Assemble();
  if (pcm.samples.empty()) {
    return FailedPreconditionError("nothing recorded yet");
  }
  return WriteWavFile(path, pcm);
}

}  // namespace espk
