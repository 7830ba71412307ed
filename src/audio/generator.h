// Deterministic signal generators — the "unmodified audio applications" of
// the experiments. Each generator produces interleaved float frames; the
// simulated players encode them to a wire format and write them to the VAD.
#ifndef SRC_AUDIO_GENERATOR_H_
#define SRC_AUDIO_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/audio/format.h"
#include "src/base/bytes.h"
#include "src/base/prng.h"

namespace espk {

// Produces successive frames of a (possibly infinite) signal. Generators are
// stateful: repeated Generate() calls continue the waveform seamlessly.
class SignalGenerator {
 public:
  virtual ~SignalGenerator() = default;

  // Appends `frames` frames (frames * channels floats) to `out`.
  virtual void Generate(int64_t frames, int channels, int sample_rate,
                        std::vector<float>* out) = 0;

  // Convenience: generates `frames` frames encoded as interleaved bytes in
  // `config`'s encoding.
  Bytes GenerateBytes(int64_t frames, const AudioConfig& config);
};

// Pure tone. All channels carry the same signal.
class SineGenerator : public SignalGenerator {
 public:
  explicit SineGenerator(double frequency_hz, float amplitude = 0.5f);
  void Generate(int64_t frames, int channels, int sample_rate,
                std::vector<float>* out) override;

 private:
  double frequency_;
  float amplitude_;
  double phase_ = 0.0;
};

// White noise, independent per channel.
class WhiteNoiseGenerator : public SignalGenerator {
 public:
  explicit WhiteNoiseGenerator(uint64_t seed, float amplitude = 0.3f);
  void Generate(int64_t frames, int channels, int sample_rate,
                std::vector<float>* out) override;

 private:
  Prng prng_;
  float amplitude_;
};

// Crude speech-like signal: a few drifting harmonics amplitude-modulated at
// syllable rate with pauses. Used as announcement/voice workload content —
// it has the spectral tilt and silence gaps that exercise the psychoacoustic
// model differently from tones.
class SpeechLikeGenerator : public SignalGenerator {
 public:
  explicit SpeechLikeGenerator(uint64_t seed, float amplitude = 0.5f);
  void Generate(int64_t frames, int channels, int sample_rate,
                std::vector<float>* out) override;

 private:
  Prng prng_;
  float amplitude_;
  double t_ = 0.0;
  double pitch_ = 120.0;
  double phase_[4] = {0, 0, 0, 0};
};

// Silence.
class SilenceGenerator : public SignalGenerator {
 public:
  void Generate(int64_t frames, int channels, int sample_rate,
                std::vector<float>* out) override;
};

// Mixed "music-like" content: chord of sines + gentle noise floor, which
// compresses realistically (neither trivially tonal nor pure noise).
class MusicLikeGenerator : public SignalGenerator {
 public:
  explicit MusicLikeGenerator(uint64_t seed, float amplitude = 0.4f);
  void Generate(int64_t frames, int channels, int sample_rate,
                std::vector<float>* out) override;

 private:
  Prng prng_;
  float amplitude_;
  double phases_[5] = {0, 0, 0, 0, 0};
  double freqs_[5];
  double t_ = 0.0;
};

}  // namespace espk

#endif  // SRC_AUDIO_GENERATOR_H_
