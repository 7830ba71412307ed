#include "src/audio/sample_convert.h"

#include <array>
#include <cmath>

namespace espk {

namespace {

// Compile-time LUTs generated from the reference companders. Encode tables
// are indexed by positive-sample magnitude >> 1 (16K entries): both G.711
// companders discard at least the bottom three magnitude bits in every
// segment, so the dropped bit never changes the code (verified exhaustively
// in audio_test). Negative samples reuse the positive entry — mu-law flips
// the complemented sign bit, A-law drops it.

constexpr std::array<int16_t, 256> kMulawDecode = [] {
  std::array<int16_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    t[i] = MulawToLinearReference(static_cast<uint8_t>(i));
  }
  return t;
}();

constexpr std::array<int16_t, 256> kAlawDecode = [] {
  std::array<int16_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    t[i] = AlawToLinearReference(static_cast<uint8_t>(i));
  }
  return t;
}();

// kMulawEncode[i] = code for the positive sample 2*i (bit 7 set).
constexpr std::array<uint8_t, 16384> kMulawEncode = [] {
  std::array<uint8_t, 16384> t{};
  for (int i = 0; i < 16384; ++i) {
    t[i] = LinearToMulawReference(static_cast<int16_t>(2 * i));
  }
  return t;
}();

// kAlawEncode[i] = sign-free code (xor-0x55 applied) for magnitude 2*i.
constexpr std::array<uint8_t, 16384> kAlawEncode = [] {
  std::array<uint8_t, 16384> t{};
  for (int i = 0; i < 16384; ++i) {
    t[i] = static_cast<uint8_t>(LinearToAlawReference(static_cast<int16_t>(2 * i)) &
                                0x7F);
  }
  return t;
}();

// Clamps to [-1, 1] and maps NaN to 0, so no NaN reaches a float-to-integer
// conversion (undefined behaviour in C++).
float ClampSample(float x) {
  return std::isnan(x) ? 0.0f : std::clamp(x, -1.0f, 1.0f);
}

// Rounds to the nearest integer, ties to even (lrintf's result in the
// default rounding mode), without a libm call, for |x| <= 2^22: adding
// 1.5 * 2^23 moves x into [2^23, 2^24), where adjacent floats are 1 apart,
// so the addition itself rounds; subtracting the (even) constant is exact.
int32_t RoundToInt(float x) {
  constexpr float kMagic = 12582912.0f;
  return static_cast<int32_t>((x + kMagic) - kMagic);
}

// The same for doubles with |x| <= 2^51, via 1.5 * 2^52.
int32_t RoundToInt(double x) {
  constexpr double kMagic = 6755399441055744.0;
  return static_cast<int32_t>((x + kMagic) - kMagic);
}

}  // namespace

uint8_t LinearToMulaw(int16_t sample) {
  if (sample >= 0) {
    return kMulawEncode[static_cast<size_t>(sample) >> 1];
  }
  // Clamp -32768 to 32767: both clip to the same maximal code.
  const int mag = std::min(-static_cast<int>(sample), 32767);
  return static_cast<uint8_t>(kMulawEncode[static_cast<size_t>(mag) >> 1] ^
                              0x80);
}

int16_t MulawToLinear(uint8_t mulaw) { return kMulawDecode[mulaw]; }

uint8_t LinearToAlaw(int16_t sample) {
  if (sample >= 0) {
    return static_cast<uint8_t>(
        kAlawEncode[static_cast<size_t>(sample) >> 1] | 0x80);
  }
  const int value = -static_cast<int>(sample) - 1;  // In [0, 32767].
  return kAlawEncode[static_cast<size_t>(value) >> 1];
}

int16_t AlawToLinear(uint8_t alaw) { return kAlawDecode[alaw]; }

int16_t FloatToS16(float x) {
  // Symmetric with S16ToFloat's /32768 so a round trip loses at most half an
  // LSB (full-scale +1.0 clamps to 32767).
  const int32_t v = RoundToInt(ClampSample(x) * 32768.0f);
  return static_cast<int16_t>(std::clamp(v, -32768, 32767));
}

float S16ToFloat(int16_t x) { return static_cast<float>(x) / 32768.0f; }

std::vector<float> DecodeToFloat(const uint8_t* data, size_t size,
                                 AudioEncoding encoding) {
  const int bps = BytesPerSample(encoding);
  const size_t n = size / static_cast<size_t>(bps);
  std::vector<float> out(n);
  switch (encoding) {
    case AudioEncoding::kMulaw:
      for (size_t i = 0; i < n; ++i) {
        out[i] = S16ToFloat(MulawToLinear(data[i]));
      }
      break;
    case AudioEncoding::kAlaw:
      for (size_t i = 0; i < n; ++i) {
        out[i] = S16ToFloat(AlawToLinear(data[i]));
      }
      break;
    case AudioEncoding::kLinearU8:
      for (size_t i = 0; i < n; ++i) {
        out[i] = (static_cast<float>(data[i]) - 128.0f) / 128.0f;
      }
      break;
    case AudioEncoding::kLinearS16:
      for (size_t i = 0; i < n; ++i) {
        auto v = static_cast<int16_t>(
            static_cast<uint16_t>(data[2 * i]) |
            (static_cast<uint16_t>(data[2 * i + 1]) << 8));
        out[i] = S16ToFloat(v);
      }
      break;
    case AudioEncoding::kLinearS24:
      for (size_t i = 0; i < n; ++i) {
        uint32_t raw = static_cast<uint32_t>(data[3 * i]) |
                       (static_cast<uint32_t>(data[3 * i + 1]) << 8) |
                       (static_cast<uint32_t>(data[3 * i + 2]) << 16);
        // Sign-extend 24 -> 32 bits.
        auto v = static_cast<int32_t>(raw << 8) >> 8;
        out[i] = static_cast<float>(v) / 8388608.0f;
      }
      break;
  }
  return out;
}

Bytes EncodeFromFloat(const std::vector<float>& samples,
                      AudioEncoding encoding) {
  const size_t n = samples.size();
  Bytes out(n * static_cast<size_t>(BytesPerSample(encoding)));
  uint8_t* p = out.data();
  switch (encoding) {
    case AudioEncoding::kMulaw:
      for (size_t i = 0; i < n; ++i) {
        p[i] = LinearToMulaw(FloatToS16(samples[i]));
      }
      break;
    case AudioEncoding::kAlaw:
      for (size_t i = 0; i < n; ++i) {
        p[i] = LinearToAlaw(FloatToS16(samples[i]));
      }
      break;
    case AudioEncoding::kLinearU8:
      for (size_t i = 0; i < n; ++i) {
        const int32_t v = RoundToInt(ClampSample(samples[i]) * 128.0f) + 128;
        p[i] = static_cast<uint8_t>(std::clamp(v, 0, 255));
      }
      break;
    case AudioEncoding::kLinearS16:
      for (size_t i = 0; i < n; ++i) {
        const int16_t v = FloatToS16(samples[i]);
        p[2 * i] = static_cast<uint8_t>(v & 0xff);
        p[2 * i + 1] = static_cast<uint8_t>((v >> 8) & 0xff);
      }
      break;
    case AudioEncoding::kLinearS24:
      for (size_t i = 0; i < n; ++i) {
        int32_t v = RoundToInt(static_cast<double>(ClampSample(samples[i])) *
                               8388607.0);
        v = std::clamp(v, -8388608, 8388607);
        p[3 * i] = static_cast<uint8_t>(v & 0xff);
        p[3 * i + 1] = static_cast<uint8_t>((v >> 8) & 0xff);
        p[3 * i + 2] = static_cast<uint8_t>((v >> 16) & 0xff);
      }
      break;
  }
  return out;
}

}  // namespace espk
