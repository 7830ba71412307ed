#include "src/speaker/auto_volume.h"

#include <algorithm>
#include <cmath>

namespace espk {
namespace {

constexpr SimDuration kTickInterval = Milliseconds(500);
// Span of recent output the microphone level is measured over.
constexpr SimDuration kRmsWindow = Milliseconds(500);
// Output-to-ambient RMS ratio the controller aims for, per mode.
constexpr double kMusicRatio = 1.0;
constexpr double kAnnouncementRatio = 4.0;
// Fraction of the gain error corrected per tick (first-order loop).
constexpr double kAdjustRate = 0.5;

}  // namespace

AutoVolumeController::AutoVolumeController(EthernetSpeaker* speaker,
                                           AmbientNoiseModel ambient,
                                           const AutoVolumeOptions& options)
    : speaker_(speaker),
      ambient_(std::move(ambient)),
      options_(options),
      task_(speaker->sim(), kTickInterval,
            [this](SimTime now) { Tick(now); }) {}

void AutoVolumeController::Tick(SimTime now) {
  OutputRecorder* recorder = speaker_->output();
  if (recorder == nullptr) {
    return;  // Not tuned / no control packet yet.
  }
  double ambient_rms = ambient_(now);
  // The microphone hears the speaker's own output; the recorder already has
  // the gain applied, so this is the acoustic level at the mic.
  double output_rms = recorder->RecentRms(now, kRmsWindow);
  float gain = speaker_->gain();

  // The source material's level, separated back out of the mic reading so
  // "audio segments recorded at different volume levels produce the same
  // sound levels" (§5.2).
  double source_rms = output_rms / std::max<double>(gain, 1e-6);
  if (source_rms > 1e-5) {
    double ratio = options_.mode == VolumeMode::kBackgroundMusic
                       ? kMusicRatio
                       : kAnnouncementRatio;
    double target_output = std::max(ambient_rms * ratio, 1e-4);
    double desired_gain = target_output / source_rms;
    double new_gain = gain + kAdjustRate * (desired_gain - gain);
    gain = std::clamp(static_cast<float>(new_gain), options_.min_gain,
                      options_.max_gain);
    speaker_->set_gain(gain);
  }
  history_.push_back(Sample{now, ambient_rms, output_rms, gain});
}

}  // namespace espk
