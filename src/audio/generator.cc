#include "src/audio/generator.h"

#include <cmath>
#include <numbers>

#include "src/audio/sample_convert.h"

namespace espk {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

Bytes SignalGenerator::GenerateBytes(int64_t frames,
                                     const AudioConfig& config) {
  std::vector<float> samples;
  samples.reserve(static_cast<size_t>(frames * config.channels));
  Generate(frames, config.channels, config.sample_rate, &samples);
  return EncodeFromFloat(samples, config.encoding);
}

SineGenerator::SineGenerator(double frequency_hz, float amplitude)
    : frequency_(frequency_hz), amplitude_(amplitude) {}

void SineGenerator::Generate(int64_t frames, int channels, int sample_rate,
                             std::vector<float>* out) {
  const double step = kTwoPi * frequency_ / sample_rate;
  for (int64_t f = 0; f < frames; ++f) {
    auto v = static_cast<float>(std::sin(phase_)) * amplitude_;
    for (int c = 0; c < channels; ++c) {
      out->push_back(v);
    }
    phase_ += step;
    if (phase_ > kTwoPi) {
      phase_ -= kTwoPi;
    }
  }
}

WhiteNoiseGenerator::WhiteNoiseGenerator(uint64_t seed, float amplitude)
    : prng_(seed), amplitude_(amplitude) {}

void WhiteNoiseGenerator::Generate(int64_t frames, int channels,
                                   int /*sample_rate*/,
                                   std::vector<float>* out) {
  for (int64_t f = 0; f < frames; ++f) {
    for (int c = 0; c < channels; ++c) {
      out->push_back(
          (static_cast<float>(prng_.NextDouble()) * 2.0f - 1.0f) * amplitude_);
    }
  }
}

SpeechLikeGenerator::SpeechLikeGenerator(uint64_t seed, float amplitude)
    : prng_(seed), amplitude_(amplitude) {}

void SpeechLikeGenerator::Generate(int64_t frames, int channels,
                                   int sample_rate, std::vector<float>* out) {
  const double dt = 1.0 / sample_rate;
  for (int64_t f = 0; f < frames; ++f) {
    // ~4 Hz syllable envelope with periodic silent gaps (pauses).
    double syllable = 0.5 * (1.0 + std::sin(kTwoPi * 3.7 * t_));
    bool pause = std::fmod(t_, 3.0) > 2.4;
    float env = pause ? 0.0f : static_cast<float>(syllable);
    // Pitch drifts slowly.
    pitch_ += prng_.NextGaussian() * 0.02;
    pitch_ = std::min(std::max(pitch_, 90.0), 180.0);
    // Harmonics with 1/h rolloff approximate a vowel's spectral tilt.
    float v = 0.0f;
    for (int h = 0; h < 4; ++h) {
      phase_[h] += kTwoPi * pitch_ * (h + 1) * dt;
      if (phase_[h] > kTwoPi) {
        phase_[h] -= kTwoPi;
      }
      v += static_cast<float>(std::sin(phase_[h])) / static_cast<float>(h + 1);
    }
    v = v / 2.08f * env * amplitude_;  // 2.08 ~= sum of 1/h for h=1..4.
    for (int c = 0; c < channels; ++c) {
      out->push_back(v);
    }
    t_ += dt;
  }
}

void SilenceGenerator::Generate(int64_t frames, int channels,
                                int /*sample_rate*/, std::vector<float>* out) {
  out->insert(out->end(), static_cast<size_t>(frames * channels), 0.0f);
}

MusicLikeGenerator::MusicLikeGenerator(uint64_t seed, float amplitude)
    : prng_(seed), amplitude_(amplitude) {
  // A-minor-ish chord plus a high sparkle partial.
  const double base[5] = {220.0, 261.63, 329.63, 440.0, 1318.5};
  for (int i = 0; i < 5; ++i) {
    freqs_[i] = base[i] * (1.0 + prng_.NextGaussian() * 0.001);
  }
}

void MusicLikeGenerator::Generate(int64_t frames, int channels,
                                  int sample_rate, std::vector<float>* out) {
  const double dt = 1.0 / sample_rate;
  const float weights[5] = {0.35f, 0.25f, 0.2f, 0.15f, 0.05f};
  for (int64_t f = 0; f < frames; ++f) {
    // Slow tremolo so the level moves like real program material.
    auto tremolo =
        static_cast<float>(0.8 + 0.2 * std::sin(kTwoPi * 0.37 * t_));
    float v = 0.0f;
    for (int i = 0; i < 5; ++i) {
      phases_[i] += kTwoPi * freqs_[i] * dt;
      if (phases_[i] > kTwoPi) {
        phases_[i] -= kTwoPi;
      }
      v += static_cast<float>(std::sin(phases_[i])) * weights[i];
    }
    // Gentle noise floor keeps the codec honest.
    v += (static_cast<float>(prng_.NextDouble()) * 2.0f - 1.0f) * 0.02f;
    v *= tremolo * amplitude_;
    for (int c = 0; c < channels; ++c) {
      out->push_back(v);
    }
    t_ += dt;
  }
}

}  // namespace espk
