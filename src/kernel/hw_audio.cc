#include "src/kernel/hw_audio.h"

#include "src/audio/sample_convert.h"
#include "src/kernel/kernel.h"

namespace espk {

void CapturePlaybackSink::OnBlockPlayed(SimTime /*start*/, const Bytes& block,
                                        const AudioConfig& config) {
  ++blocks_;
  std::vector<float> decoded = DecodeToFloat(block, config.encoding);
  samples_.insert(samples_.end(), decoded.begin(), decoded.end());
}

HwAudioLowLevel::HwAudioLowLevel(SimKernel* kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {}

void HwAudioLowLevel::OnConfigChange(const AudioConfig& /*config*/) {
  // A real driver reprograms the codec chip; the simulated card just reads
  // the high-level driver's current config at each DMA completion.
}

Status HwAudioLowLevel::TriggerOutput() {
  if (hld_ == nullptr) {
    return FailedPreconditionError("low-level driver not attached");
  }
  if (running_) {
    return OkStatus();
  }
  running_ = true;
  // The first DMA transfer starts immediately; from here on the hardware
  // paces itself and the high-level driver is never re-invoked (§3.3).
  ScheduleNextDma();
  return OkStatus();
}

void HwAudioLowLevel::HaltOutput() {
  running_ = false;
  kernel_->sim()->Cancel(dma_event_);
}

void HwAudioLowLevel::ScheduleNextDma() {
  // One block takes exactly its audio duration to play out.
  SimDuration block_time = hld_->config().BytesToDuration(
      static_cast<int64_t>(hld_->block_size()));
  dma_event_ = kernel_->sim()->ScheduleAfter(block_time,
                                             [this] { OnDmaComplete(); });
}

void HwAudioLowLevel::OnDmaComplete() {
  if (!running_) {
    return;
  }
  kernel_->CountInterrupt();
  SimTime now = kernel_->sim()->now();
  Bytes block = hld_->PullBlock();  // Pads with silence on underrun.
  if (sink_ != nullptr) {
    sink_->OnBlockPlayed(now, block, hld_->config());
  }
  ScheduleNextDma();
}

Result<HwAudioHandles> CreateHwAudioDevice(SimKernel* kernel, int index,
                                           size_t ring_capacity) {
  std::string name = "audio" + std::to_string(index);
  auto lld = std::make_unique<HwAudioLowLevel>(kernel, name);
  HwAudioLowLevel* lld_ptr = lld.get();
  auto hld = std::make_unique<AudioHighLevel>(kernel, name, std::move(lld),
                                              ring_capacity);
  AudioHighLevel* hld_ptr = hld.get();
  ESPK_RETURN_IF_ERROR(
      kernel->RegisterDevice("/dev/" + name, std::move(hld)));
  return HwAudioHandles{hld_ptr, lld_ptr};
}

}  // namespace espk
