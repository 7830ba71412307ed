#include "src/audio/pcm.h"

#include <algorithm>
#include <cmath>

namespace espk {

void ApplyGain(PcmBuffer* buf, float gain) {
  for (float& s : buf->samples) {
    s *= gain;
  }
}

float DbToGain(float db) { return std::pow(10.0f, db / 20.0f); }

float GainToDb(float gain) {
  return 20.0f * std::log10(std::max(gain, 1e-9f));
}

Status MixInto(PcmBuffer* a, const PcmBuffer& b) {
  if (a->channels != b.channels || a->sample_rate != b.sample_rate) {
    return InvalidArgumentError("MixInto requires matching layouts: " +
                                std::to_string(a->channels) + "ch@" +
                                std::to_string(a->sample_rate) + " vs " +
                                std::to_string(b.channels) + "ch@" +
                                std::to_string(b.sample_rate));
  }
  if (b.samples.size() > a->samples.size()) {
    a->samples.resize(b.samples.size(), 0.0f);
  }
  for (size_t i = 0; i < b.samples.size(); ++i) {
    a->samples[i] += b.samples[i];
  }
  return OkStatus();
}

PcmBuffer ConvertChannels(const PcmBuffer& in, int out_channels) {
  if (in.channels == out_channels) {
    return in;
  }
  PcmBuffer out;
  out.channels = out_channels;
  out.sample_rate = in.sample_rate;
  const int64_t frames = in.frames();
  out.samples.resize(static_cast<size_t>(frames * out_channels), 0.0f);
  for (int64_t f = 0; f < frames; ++f) {
    if (in.channels == 1) {
      // Mono fan-out.
      for (int c = 0; c < out_channels; ++c) {
        out.samples[static_cast<size_t>(f * out_channels + c)] =
            in.samples[static_cast<size_t>(f)];
      }
    } else if (out_channels == 1) {
      // Downmix by averaging.
      float acc = 0.0f;
      for (int c = 0; c < in.channels; ++c) {
        acc += in.samples[static_cast<size_t>(f * in.channels + c)];
      }
      out.samples[static_cast<size_t>(f)] =
          acc / static_cast<float>(in.channels);
    } else {
      // Copy overlapping channels, zero-fill the rest.
      int copy = std::min(in.channels, out_channels);
      for (int c = 0; c < copy; ++c) {
        out.samples[static_cast<size_t>(f * out_channels + c)] =
            in.samples[static_cast<size_t>(f * in.channels + c)];
      }
    }
  }
  return out;
}

PcmBuffer Resample(const PcmBuffer& in, int out_rate) {
  if (in.sample_rate == out_rate || in.frames() == 0) {
    PcmBuffer out = in;
    out.sample_rate = out_rate;
    return out;
  }
  PcmBuffer out;
  out.channels = in.channels;
  out.sample_rate = out_rate;
  const int64_t in_frames = in.frames();
  const auto out_frames = static_cast<int64_t>(
      static_cast<double>(in_frames) * out_rate / in.sample_rate);
  out.samples.resize(static_cast<size_t>(out_frames * in.channels));
  const double step =
      static_cast<double>(in.sample_rate) / static_cast<double>(out_rate);
  for (int64_t f = 0; f < out_frames; ++f) {
    double src = static_cast<double>(f) * step;
    auto i0 = static_cast<int64_t>(src);
    int64_t i1 = std::min(i0 + 1, in_frames - 1);
    auto frac = static_cast<float>(src - static_cast<double>(i0));
    for (int c = 0; c < in.channels; ++c) {
      float a = in.samples[static_cast<size_t>(i0 * in.channels + c)];
      float b = in.samples[static_cast<size_t>(i1 * in.channels + c)];
      out.samples[static_cast<size_t>(f * in.channels + c)] =
          a + (b - a) * frac;
    }
  }
  return out;
}

}  // namespace espk
