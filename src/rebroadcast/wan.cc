#include "src/rebroadcast/wan.h"

#include "src/base/logging.h"

namespace espk {

Bytes WanChunk::Serialize() const {
  ByteWriter w;
  w.WriteU32(seq);
  w.WriteLengthPrefixed(pcm);
  return w.TakeBytes();
}

Result<WanChunk> WanChunk::Deserialize(const BufferSlice& wire) {
  ByteReader r(wire.data(), wire.size());
  Result<uint32_t> seq = r.ReadU32();
  if (!seq.ok()) {
    return seq.status();
  }
  Result<Bytes> pcm = r.ReadLengthPrefixed();
  if (!pcm.ok()) {
    return pcm.status();
  }
  WanChunk chunk;
  chunk.seq = *seq;
  chunk.pcm = std::move(*pcm);
  return chunk;
}

WanAudioServer::WanAudioServer(Simulation* sim, Transport* wan,
                               const AudioConfig& config,
                               std::unique_ptr<SignalGenerator> generator,
                               SimDuration chunk_interval)
    : wan_(wan),
      config_(config),
      generator_(std::move(generator)),
      chunk_interval_(chunk_interval),
      task_(sim, chunk_interval, [this](SimTime now) { Tick(now); }) {}

void WanAudioServer::Tick(SimTime /*now*/) {
  if (listeners_.empty()) {
    return;
  }
  int64_t frames = DurationToFrames(chunk_interval_, config_.sample_rate);
  WanChunk chunk;
  chunk.seq = next_seq_++;
  chunk.pcm = generator_->GenerateBytes(frames, config_);
  // Serialize once and fan the slice out; each unicast shares the buffer.
  BufferSlice wire(chunk.Serialize());
  for (NodeId listener : listeners_) {
    (void)wan_->SendUnicast(listener, wire);
    ++chunks_sent_;
  }
}

GatewayPlayer::GatewayPlayer(SimKernel* kernel, Pid pid,
                             std::string device_path, Transport* wan_nic,
                             const AudioConfig& config)
    : kernel_(kernel),
      pid_(pid),
      device_path_(std::move(device_path)),
      wan_nic_(wan_nic),
      config_(config) {}

GatewayPlayer::~GatewayPlayer() { Stop(); }

Status GatewayPlayer::Start() {
  Result<int> fd = kernel_->Open(pid_, device_path_);
  if (!fd.ok()) {
    return fd.status();
  }
  fd_ = *fd;
  ByteWriter w;
  config_.Serialize(&w);
  Bytes cfg = w.TakeBytes();
  ESPK_RETURN_IF_ERROR(
      kernel_->Ioctl(pid_, fd_, IoctlCmd::kAudioSetInfo, &cfg));
  running_ = true;
  wan_nic_->SetReceiveHandler(
      [this](const Datagram& datagram) { OnDatagram(datagram); });
  return OkStatus();
}

void GatewayPlayer::Stop() {
  if (fd_ >= 0) {
    (void)kernel_->Close(pid_, fd_);
    fd_ = -1;
  }
  running_ = false;
}

void GatewayPlayer::OnDatagram(const Datagram& datagram) {
  if (!running_) {
    return;
  }
  Result<WanChunk> chunk = WanChunk::Deserialize(datagram.payload);
  if (!chunk.ok()) {
    ESPK_LOG(kWarning) << "gateway: bad WAN chunk: " << chunk.status();
    return;
  }
  ++chunks_received_;
  // Client-side buffering: if the device (VAD) is applying backpressure and
  // our buffer is deep, drop — a live stream cannot wait forever.
  if (pending_.size() > static_cast<size_t>(config_.bytes_per_second())) {
    return;
  }
  pending_.insert(pending_.end(), chunk->pcm.begin(), chunk->pcm.end());
  FlushToDevice();
}

void GatewayPlayer::FlushToDevice() {
  if (!running_ || write_outstanding_ || pending_.empty()) {
    return;
  }
  write_outstanding_ = true;
  Bytes to_write = std::move(pending_);
  pending_.clear();
  kernel_->Write(pid_, fd_, to_write, [this](Result<size_t> accepted) {
    write_outstanding_ = false;
    if (!accepted.ok()) {
      if (running_) {
        ESPK_LOG(kWarning) << "gateway write failed: " << accepted.status();
      }
      return;
    }
    FlushToDevice();
  });
}

}  // namespace espk
