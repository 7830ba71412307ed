// Simulated sound card: the low-level driver whose "hardware" consumes one
// block per block-duration on the simulated clock and fires the completion
// interrupt — the producer-consumer relationship that implicitly rate-limits
// writes to a real audio device (§3.1: "if a five second audio clip is sent
// to the sound device then it will take five seconds to play").
#ifndef SRC_KERNEL_HW_AUDIO_H_
#define SRC_KERNEL_HW_AUDIO_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/audio/format.h"
#include "src/kernel/audio_hld.h"
#include "src/kernel/audio_lld.h"
#include "src/sim/simulation.h"

namespace espk {

class SimKernel;

// Receives every block the "hardware" plays, with its simulated start time.
// Tests and the speaker model use this to reconstruct what actually came
// out of the speaker jack.
class PlaybackSink {
 public:
  virtual ~PlaybackSink() = default;
  virtual void OnBlockPlayed(SimTime start, const Bytes& block,
                             const AudioConfig& config) = 0;
};

// A PlaybackSink that accumulates decoded float samples.
class CapturePlaybackSink : public PlaybackSink {
 public:
  void OnBlockPlayed(SimTime start, const Bytes& block,
                     const AudioConfig& config) override;

  const std::vector<float>& samples() const { return samples_; }
  uint64_t blocks() const { return blocks_; }

 private:
  std::vector<float> samples_;
  uint64_t blocks_ = 0;
};

class HwAudioLowLevel : public AudioLowLevel {
 public:
  HwAudioLowLevel(SimKernel* kernel, std::string name);

  std::string name() const override { return name_; }
  bool is_pseudo() const override { return false; }
  void Attach(AudioHighLevel* hld) override { hld_ = hld; }
  void OnConfigChange(const AudioConfig& config) override;
  Status TriggerOutput() override;
  void HaltOutput() override;

  // Where played audio goes (not owned). May be null (audio discarded).
  void set_sink(PlaybackSink* sink) { sink_ = sink; }

 private:
  void ScheduleNextDma();
  void OnDmaComplete();

  SimKernel* kernel_;
  std::string name_;
  AudioHighLevel* hld_ = nullptr;
  PlaybackSink* sink_ = nullptr;
  bool running_ = false;
  Simulation::EventHandle dma_event_;
};

// Convenience: registers /dev/audioN backed by a simulated card and returns
// the low-level driver (for attaching a sink) — the high-level device is
// owned by the kernel's device table.
struct HwAudioHandles {
  AudioHighLevel* hld;
  HwAudioLowLevel* lld;
};
Result<HwAudioHandles> CreateHwAudioDevice(SimKernel* kernel, int index,
                                           size_t ring_capacity = 65536);

}  // namespace espk

#endif  // SRC_KERNEL_HW_AUDIO_H_
