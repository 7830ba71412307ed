#include "src/rebroadcast/rebroadcaster.h"

#include <algorithm>
#include <utility>

#include "src/audio/sample_convert.h"
#include "src/base/logging.h"
#include "src/kernel/vad.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace espk {

namespace {
// Stop reading the VAD once this many packets' worth of PCM is staged and a
// rate-limited send is pending; backpressure then propagates through the
// master queue to the writing application.
constexpr size_t kStagingHighWatermarkPackets = 8;
// §2.2 selective compression: streams at or above this bitrate are
// Vorbix-compressed, below it sent raw. 200 kbps splits phone/CD cleanly.
constexpr double kCompressThresholdBps = 200000.0;
}  // namespace

Rebroadcaster::Rebroadcaster(SimKernel* kernel, Pid pid,
                             std::string master_path, Transport* transport,
                             const RebroadcasterOptions& options)
    : kernel_(kernel),
      pid_(pid),
      master_path_(std::move(master_path)),
      transport_(transport),
      options_(options),
      limiter_(options.rate_limiter_lead) {}

Rebroadcaster::~Rebroadcaster() { Stop(); }

Status Rebroadcaster::Start() {
  if (running_) {
    return FailedPreconditionError("rebroadcaster already running");
  }
  Result<int> fd = kernel_->Open(pid_, master_path_);
  if (!fd.ok()) {
    return fd.status();
  }
  fd_ = *fd;
  running_ = true;
  control_task_ = std::make_unique<PeriodicTask>(
      kernel_->sim(), options_.control_interval, [this](SimTime now) {
        if (have_config_) {
          SendControlPacket(now);
        }
      });
  control_task_->Start();
  ReadNext();
  return OkStatus();
}

void Rebroadcaster::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  control_task_.reset();
  (void)kernel_->Close(pid_, fd_);
  fd_ = -1;
}

void Rebroadcaster::ReadNext() {
  if (!running_ || read_outstanding_) {
    return;
  }
  // Backpressure (§3.1): while a rate-limited send is pending and plenty of
  // data is already staged, stop consuming the VAD; the master queue and
  // then the slave ring fill, and eventually the writer blocks — just as a
  // real audio device would have blocked it.
  const size_t packet_bytes = have_config_
      ? static_cast<size_t>(options_.packet_frames) *
            static_cast<size_t>(config_.bytes_per_frame())
      : 0;
  if (send_scheduled_ && packet_bytes > 0 &&
      staging_.size() >= kStagingHighWatermarkPackets * packet_bytes) {
    return;
  }
  read_outstanding_ = true;
  kernel_->Read(pid_, fd_, 1 << 20, [this](Result<Bytes> frame) {
    read_outstanding_ = false;
    if (!running_) {
      return;
    }
    if (!frame.ok()) {
      ESPK_LOG(kWarning) << "rebroadcaster read failed: " << frame.status();
      return;
    }
    HandleRecord(*frame);
    ReadNext();
  });
}

void Rebroadcaster::HandleRecord(const Bytes& frame) {
  Result<VadRecord> record = VadRecord::Deserialize(frame);
  if (!record.ok()) {
    ESPK_LOG(kWarning) << "rebroadcaster: bad VAD record: " << record.status();
    return;
  }
  if (record->type == VadRecord::Type::kConfig) {
    HandleConfig(record->config);
  } else {
    HandleAudio(record->audio);
  }
}

void Rebroadcaster::HandleConfig(const AudioConfig& config) {
  if (have_config_ && config == config_) {
    return;
  }
  if (!staging_.empty()) {
    // PCM staged under the old configuration cannot be interpreted under
    // the new one; a real stream transition flushes. Dropping staged bytes
    // desynchronizes the tracer's byte->packet attribution, so restart it.
    ESPK_LOG(kInfo) << "config change drops " << staging_.size()
                    << " staged bytes";
    staging_.clear();
    bytes_cut_ = 0;
    if (options_.tracer != nullptr) {
      options_.tracer->ResetStream(options_.stream_id);
    }
  }
  config_ = config;
  have_config_ = true;
  ++stats_.config_changes;
  ++control_seq_;
  codec_id_ = PickCodec(config);
  Result<std::unique_ptr<AudioEncoder>> encoder =
      CreateEncoder(codec_id_, config_, options_.quality);
  if (!encoder.ok()) {
    ESPK_LOG(kError) << "cannot create encoder: " << encoder.status();
    have_config_ = false;
    return;
  }
  encoder_ = std::move(*encoder);
  SimTime now = kernel_->sim()->now();
  limiter_.Reset(now);
  next_deadline_ = now + options_.playout_delay;
  // Announce the new configuration right away; periodic control packets
  // repeat it for late joiners (§2.3).
  SendControlPacket(now);
}

void Rebroadcaster::HandleAudio(const Bytes& pcm) {
  if (!have_config_) {
    // Cannot interpret audio without a configuration; the application is
    // expected to SETINFO first (audio(4) defaults would apply otherwise).
    ESPK_LOG(kWarning) << "audio before config, dropping "
                       << pcm.size() << " bytes";
    return;
  }
  if (staging_.empty()) {
    // After an idle gap, do not let the rate limiter think we are behind.
    limiter_.CatchUp(kernel_->sim()->now());
  }
  staging_.insert(staging_.end(), pcm.begin(), pcm.end());
  stats_.pcm_bytes_in += pcm.size();
  if (options_.tracer != nullptr) {
    options_.tracer->NoteBytes(options_.stream_id,
                               TraceStage::kRebroadcastRead, pcm.size());
  }
  MaybeSendPacket();
}

void Rebroadcaster::MaybeSendPacket() {
  if (!running_ || send_scheduled_ || !have_config_) {
    return;
  }
  const size_t packet_bytes =
      static_cast<size_t>(options_.packet_frames) *
      static_cast<size_t>(config_.bytes_per_frame());
  while (staging_.size() >= packet_bytes) {
    SimDuration chunk_duration =
        config_.BytesToDuration(static_cast<int64_t>(packet_bytes));
    SimTime now = kernel_->sim()->now();
    SimTime earliest = options_.rate_limiter_enabled
                           ? limiter_.EarliestSendTime(now, chunk_duration)
                           : now;
    if (earliest > now) {
      // Sleep "for the exact duration of time that it would take to
      // actually play the data" (§3.1). This is a real nanosleep in the
      // producer process: the scheduler switches away and back, which is
      // part of the user-level streaming cost Figure 5 measures.
      send_scheduled_ = true;
      ++stats_.rate_limit_sleeps;
      kernel_->CountBlock();
      kernel_->sim()->ScheduleAt(earliest, [this] {
        send_scheduled_ = false;
        if (!running_) {
          return;
        }
        kernel_->CountWakeup();
        SendDataPacket();
        MaybeSendPacket();
        ReadNext();  // Resume consuming the VAD if reads were paused.
      });
      return;
    }
    SendDataPacket();
  }
}

void Rebroadcaster::SendDataPacket() {
  const size_t packet_bytes =
      static_cast<size_t>(options_.packet_frames) *
      static_cast<size_t>(config_.bytes_per_frame());
  if (staging_.size() < packet_bytes) {
    return;
  }
  Bytes chunk(staging_.begin(), staging_.begin() + static_cast<long>(packet_bytes));
  staging_.erase(staging_.begin(), staging_.begin() + static_cast<long>(packet_bytes));
  bytes_cut_ += packet_bytes;

  std::vector<float> samples = DecodeToFloat(chunk, config_.encoding);
  const double cpu_before = encode_cpu_.total_seconds();
  encode_cpu_.Begin();
  Result<Bytes> payload = encoder_->EncodePacket(samples);
  encode_cpu_.End();
  if (options_.encode_ms_histogram != nullptr) {
    options_.encode_ms_histogram->Observe(
        (encode_cpu_.total_seconds() - cpu_before) * 1e3);
  }
  if (!payload.ok()) {
    ESPK_LOG(kError) << "encode failed: " << payload.status();
    return;
  }

  SimTime now = kernel_->sim()->now();
  SimDuration chunk_duration =
      config_.BytesToDuration(static_cast<int64_t>(packet_bytes));
  if (next_deadline_ < now) {
    // The pipeline stalled past its own deadline (source gap); restart the
    // playout timeline rather than sending already-late audio.
    next_deadline_ = now + options_.playout_delay;
  }

  next_deadline_ += chunk_duration;
  limiter_.Advance(chunk_duration);
  if (suspended_) {
    // No listeners (MSNIP suspension): the live source keeps flowing and
    // the timeline keeps advancing, but nothing hits the wire.
    ++stats_.packets_suppressed;
    return;
  }

  DataPacket packet;
  packet.stream_id = options_.stream_id;
  packet.seq = next_seq_++;
  packet.play_deadline = next_deadline_ - chunk_duration;
  packet.frame_count = static_cast<uint32_t>(options_.packet_frames);
  packet.payload = std::move(*payload);

  if (options_.tracer != nullptr) {
    // Resolve the byte-stream stages to this packet now that its sequence
    // number exists, then stamp the packet-addressed stages. Cut, encode,
    // and send all happen at this same sim instant (encode costs host CPU,
    // not simulated time).
    options_.tracer->AttributeBytes(options_.stream_id, TraceStage::kVadWrite,
                                    bytes_cut_, packet.seq);
    options_.tracer->AttributeBytes(options_.stream_id,
                                    TraceStage::kRebroadcastRead, bytes_cut_,
                                    packet.seq);
    options_.tracer->Record(options_.stream_id, packet.seq,
                            TraceStage::kEncode);
  }

  stats_.payload_bytes += packet.payload.size();
  ++stats_.data_packets;
  if (options_.tracer != nullptr) {
    // Stamp the hand-off to the LAN before Send(): the segment transmits
    // synchronously and records kWireTx / kQueueDrop from inside Send, so
    // the send stage must already be on the timeline for the span exporter
    // to measure tx-queue wait as (wire start - send).
    options_.tracer->Record(options_.stream_id, packet.seq,
                            TraceStage::kMulticastSend,
                            transport_->node_id());
  }
  Send(packet, TraceTag{packet.stream_id, packet.seq,
                        PacketTraceId(packet.stream_id, packet.seq),
                        /*valid=*/true});
}

void Rebroadcaster::SendControlPacket(SimTime now) {
  ControlPacket packet;
  packet.stream_id = options_.stream_id;
  packet.control_seq = control_seq_;
  packet.producer_clock = now;
  packet.config = config_;
  packet.codec = codec_id_;
  packet.quality = static_cast<uint8_t>(options_.quality);
  ++stats_.control_packets;
  Send(packet);
}

CodecId Rebroadcaster::PickCodec(const AudioConfig& config) const {
  if (options_.codec_override.has_value()) {
    return *options_.codec_override;
  }
  // §2.2: low-bitrate channels are sent uncompressed — Vorbix would add
  // latency and sender CPU for little bandwidth gain.
  return config.bits_per_second() >= kCompressThresholdBps
             ? CodecId::kVorbix
             : CodecId::kRaw;
}

void Rebroadcaster::Send(const Packet& packet, TraceTag trace) {
  Bytes auth;
  if (options_.authenticator) {
    auth = options_.authenticator(SignedRegion(packet));
  }
  // Serialize once into a shared buffer; the segment fans the slice out to
  // every listener without another payload copy.
  Status status = transport_->SendMulticast(
      options_.group, SerializePacketSlice(packet, auth), trace);
  if (!status.ok()) {
    ESPK_LOG(kWarning) << "multicast send failed: " << status;
  }
}

}  // namespace espk
