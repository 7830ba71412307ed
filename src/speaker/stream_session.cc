#include "src/speaker/stream_session.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/base/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/speaker/speaker.h"

namespace espk {

StreamSession::StreamSession(EthernetSpeaker* speaker, GroupId group,
                             uint64_t epoch)
    : speaker_(speaker), group_(group), epoch_(epoch) {}

StreamSession::~StreamSession() = default;

void StreamSession::NotePlay(SimTime at, size_t sample_count) {
  if (last_play_end_ != 0 && at > last_play_end_) {
    speaker_->stats_.silence_ns += at - last_play_end_;
  }
  if (config_.has_value() && config_->sample_rate > 0 &&
      config_->channels > 0) {
    const int64_t frames =
        static_cast<int64_t>(sample_count / config_->channels);
    last_play_end_ = at + frames * 1'000'000'000 / config_->sample_rate;
  } else {
    last_play_end_ = at;
  }
}

void StreamSession::HandleControl(const ControlPacket& packet) {
  ++speaker_->stats_.control_packets;
  SimTime now = speaker_->sim_->now();
  // Adopt the producer's wall clock. Transmission latency is deliberately
  // ignored — the §3.2 uniform-delivery assumption. With smoothing enabled
  // (an extension), jittered control arrivals average out instead of each
  // one yanking the timeline.
  SimDuration sample = now - packet.producer_clock;
  if (!config_.has_value() ||
      speaker_->options_.clock_smoothing_alpha >= 1.0) {
    clock_offset_ = sample;
  } else {
    double alpha = speaker_->options_.clock_smoothing_alpha;
    clock_offset_ = static_cast<SimDuration>(
        alpha * static_cast<double>(sample) +
        (1.0 - alpha) * static_cast<double>(clock_offset_));
  }

  bool config_changed = !config_.has_value() || *config_ != packet.config ||
                        codec_ != packet.codec ||
                        control_seq_ != packet.control_seq;
  if (!config_changed) {
    return;
  }
  Result<std::unique_ptr<AudioDecoder>> decoder =
      CreateDecoder(packet.codec, packet.config, packet.quality);
  if (!decoder.ok()) {
    ESPK_LOG(kWarning) << speaker_->options_.name
                       << ": unusable control packet: " << decoder.status();
    return;
  }
  config_ = packet.config;
  codec_ = packet.codec;
  quality_ = packet.quality;
  control_seq_ = packet.control_seq;
  decoder_ = std::move(*decoder);
  // A genuine config change restarts the output epoch; periodic control
  // repeats (same control_seq) never get here.
  recorder_ = std::make_unique<OutputRecorder>(config_->sample_rate,
                                               config_->channels);
  ESPK_LOG(kDebug) << speaker_->options_.name << ": tuned group " << group_
                   << ", config " << config_->ToString();
}

bool StreamSession::HandleData(const DataPacket& packet, PipelineJob* out) {
  ++speaker_->stats_.data_packets;
  ++stats_.data_packets;
  speaker_->Trace(packet.stream_id, packet.seq, TraceStage::kSpeakerReceive);
  if (!config_.has_value()) {
    // §2.3: "The Ethernet Speaker has to wait till it receives a control
    // packet before it can start playing the audio stream."
    ++speaker_->stats_.waiting_drops;
    return false;
  }
  // RFC 1982 serial arithmetic: `ahead` is how far this seq lies past the
  // highest seen, correct across the 2^32 wrap. A seq 0..999 behind is a
  // replay.
  const auto ahead = static_cast<int32_t>(packet.seq - highest_seq_seen_);
  if (any_data_seen_ && ahead <= 0 && ahead > -1000) {
    ++speaker_->stats_.duplicate_drops;
    return false;
  }
  if (!any_data_seen_ || ahead > 0) {
    highest_seq_seen_ = packet.seq;
  }
  any_data_seen_ = true;

  // Buffer accounting uses the decoded size; refuse when full (§3.1 — this
  // is the buffer a non-rate-limited producer overflows). The capacity is a
  // device budget shared by every subscription, so the check runs against
  // the speaker-wide total, not this session's share.
  const size_t decoded_bytes = static_cast<size_t>(packet.frame_count) *
                               static_cast<size_t>(config_->channels) *
                               sizeof(float);
  if (speaker_->queued_pcm_bytes() + decoded_bytes >
      speaker_->options_.jitter_buffer_bytes) {
    ++speaker_->stats_.overflow_drops;
    return false;
  }

  SimTime now = speaker_->sim_->now();
  SimTime local_deadline = packet.play_deadline + clock_offset_;

  // Serialized decode pipeline with CPU cost proportional to audio
  // duration (§3.4: the slow EON 4000 decode stage). The decode CPU is the
  // device's, shared across subscriptions, so the busy horizon lives on
  // the speaker.
  SimDuration audio_duration =
      FramesToDuration(packet.frame_count, config_->sample_rate);
  auto decode_time = static_cast<SimDuration>(
      static_cast<double>(audio_duration) *
      speaker_->options_.decode_speed_factor);
  SimTime decode_start = std::max(now, speaker_->decode_busy_until_);
  SimTime decode_done = decode_start + decode_time;
  speaker_->decode_busy_until_ = decode_done;
  if (speaker_->options_.tracer != nullptr &&
      speaker_->options_.tracer->span_stages_enabled()) {
    // Span-plane stage: separates jitter-buffer dwell (receive ->
    // decode_start) from decode itself. decode_start may be in the future
    // when the serialized pipeline is busy, hence RecordAt.
    speaker_->options_.tracer->RecordAt(packet.stream_id, packet.seq,
                                        TraceStage::kDecodeStart,
                                        speaker_->node_id_, decode_start);
  }

  // The packet occupies the jitter buffer from arrival; the payload rides
  // the pipeline in the job's group, as a slice of the arrival buffer (no
  // copy, and the slice keeps that buffer alive) until the decode stage
  // actually runs.
  queued_pcm_bytes_ += decoded_bytes;
  out->at = decode_done;
  out->session_epoch = epoch_;
  out->local_deadline = local_deadline;
  out->decoded_bytes = decoded_bytes;
  out->group = group_;
  return true;
}

bool StreamSession::RunDecode(const DecodeGroup& packet,
                              const PipelineJob& job, LastDecode* last) {
  if (decoder_ == nullptr || recorder_ == nullptr) {
    queued_pcm_bytes_ -= job.decoded_bytes;
    return false;  // Cannot happen after admission; kept as a defensive mirror.
  }
  // The session's CURRENT decoder parameters, as for a decode of its own: a
  // control packet may have switched them since admission.
  if (!last->Matches(packet.payload, codec_, *config_, quality_)) {
    Result<std::vector<float>> samples =
        decoder_->DecodePacket(packet.payload);
    if (!samples.ok()) {
      ++speaker_->stats_.decode_errors;
      queued_pcm_bytes_ -= job.decoded_bytes;
      return false;
    }
    *last = LastDecode{
        packet.payload, codec_, *config_, quality_,
        std::make_shared<const std::vector<float>>(std::move(*samples))};
  }
  return OnDecodeComplete(packet, job, last->pcm);
}

bool StreamSession::OnDecodeComplete(const DecodeGroup& packet,
                                     const PipelineJob& job,
                                     const PcmBlock& pcm) {
  speaker_->Trace(packet.stream_id, packet.seq, TraceStage::kDecodeDone);
  SimTime now = speaker_->sim_->now();
  SimDuration lateness = now - job.local_deadline;
  if (speaker_->options_.lateness_histogram != nullptr) {
    if (speaker_->options_.tracer != nullptr &&
        speaker_->options_.tracer->span_stages_enabled()) {
      // With the span plane on, the observation carries the packet's trace
      // identity so the bucket's exemplar resolves to a retained span tree.
      speaker_->options_.lateness_histogram->ObserveExemplar(
          ToMillisecondsF(lateness),
          PacketTraceId(packet.stream_id, packet.seq), now);
    } else {
      speaker_->options_.lateness_histogram->Observe(
          ToMillisecondsF(lateness));
    }
  }
  if (lateness > speaker_->options_.sync_epsilon) {
    // §3.2: throw away data up until the current wall time.
    queued_pcm_bytes_ -= job.decoded_bytes;
    ++speaker_->stats_.late_drops;
    ++stats_.late_drops;
    speaker_->Trace(packet.stream_id, packet.seq, TraceStage::kDeadlineMiss);
    return false;
  }
  if (lateness > 0) {
    // Within epsilon: play immediately, slightly late. Without this leeway
    // "data will be unnecessarily thrown out and skipping in playback will
    // be noticeable" (§3.2).
    queued_pcm_bytes_ -= job.decoded_bytes;
    speaker_->stats_.total_lateness_ns += lateness;
    ++speaker_->stats_.chunks_played;
    ++stats_.chunks_played;
    NotePlay(now, pcm->size());
    speaker_->Trace(packet.stream_id, packet.seq, TraceStage::kPlay);
    recorder_->Play(now, pcm, speaker_->options_.gain);
    return false;
  }
  // Early: sleep until it is time to play. The chunk keeps occupying the
  // jitter buffer until it leaves the speaker.
  return true;
}

void StreamSession::RunPlay(const PlayGroup& packet, const PipelineJob& job) {
  queued_pcm_bytes_ -= job.decoded_bytes;
  if (recorder_ == nullptr) {
    return;
  }
  const PcmBlock& pcm = packet.block(job.block);
  ++speaker_->stats_.chunks_played;
  ++stats_.chunks_played;
  NotePlay(job.at, pcm->size());
  speaker_->Trace(packet.stream_id, packet.seq, TraceStage::kPlay);
  recorder_->Play(job.at, pcm, speaker_->options_.gain);
}

}  // namespace espk
