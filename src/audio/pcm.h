// Operations on interleaved float PCM: gain, mixing, channel remapping, and
// a linear resampler. These back the speaker's volume control (§5.2) and the
// format conversions the rebroadcaster may need between a VAD stream and a
// channel's configured wire format.
#ifndef SRC_AUDIO_PCM_H_
#define SRC_AUDIO_PCM_H_

#include <vector>

#include "src/audio/format.h"
#include "src/base/status.h"

namespace espk {

// Interleaved float samples plus layout. frames() * channels == data.size().
struct PcmBuffer {
  std::vector<float> samples;
  int channels = 1;
  int sample_rate = 8000;

  int64_t frames() const {
    return channels > 0
               ? static_cast<int64_t>(samples.size()) / channels
               : 0;
  }
};

// Multiplies every sample by `gain` (no clipping; callers clamp on encode).
void ApplyGain(PcmBuffer* buf, float gain);

// Converts a decibel volume setting to linear gain (0 dB -> 1.0).
float DbToGain(float db);
float GainToDb(float gain);

// Mixes `b` into `a` sample-by-sample (same layout required); `a` grows if
// `b` is longer.
Status MixInto(PcmBuffer* a, const PcmBuffer& b);

// Channel conversion: mono->N duplicates, N->mono averages, otherwise
// truncates/zero-fills channels.
PcmBuffer ConvertChannels(const PcmBuffer& in, int out_channels);

// Linear-interpolation resampler. Adequate for voice/announcement paths;
// the lossy codec path never resamples.
PcmBuffer Resample(const PcmBuffer& in, int out_rate);

}  // namespace espk

#endif  // SRC_AUDIO_PCM_H_
