// Sample-level conversions between the wire encodings (audio(4) formats) and
// the float32 [-1, 1] samples the DSP/codec layers work in. Includes G.711
// mu-law and A-law companders implemented from the ITU-T specification.
//
// The public LinearTo*/ *ToLinear converters are table-driven: 256-entry
// decode LUTs and 16K-entry (magnitude >> 1) encode LUTs, all built at
// compile time from the spec-literal *Reference implementations below. The
// low magnitude bit can be dropped because both companders discard at least
// the bottom three magnitude bits in every segment; audio_test verifies the
// tables exhaustively against the references over all 65536 inputs.
#ifndef SRC_AUDIO_SAMPLE_CONVERT_H_
#define SRC_AUDIO_SAMPLE_CONVERT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/audio/format.h"
#include "src/base/bytes.h"

namespace espk {

// G.711 mu-law <-> 16-bit linear (table-driven).
uint8_t LinearToMulaw(int16_t sample);
int16_t MulawToLinear(uint8_t mulaw);

// G.711 A-law <-> 16-bit linear (table-driven).
uint8_t LinearToAlaw(int16_t sample);
int16_t AlawToLinear(uint8_t alaw);

// Spec-literal reference implementations. These are the source of truth the
// LUTs are generated from (at compile time) and tested against; production
// code should call the table-driven converters above.
inline constexpr int kMulawBias = 0x84;  // 132
inline constexpr int kMulawClip = 32635;

constexpr uint8_t LinearToMulawReference(int16_t sample) {
  int sign = (sample >> 8) & 0x80;
  int value = sample;
  if (sign != 0) {
    value = -value;
  }
  value = std::min(value, kMulawClip);
  value += kMulawBias;
  int exponent = 7;
  for (int mask = 0x4000; (value & mask) == 0 && exponent > 0; mask >>= 1) {
    --exponent;
  }
  int mantissa = (value >> (exponent + 3)) & 0x0F;
  return static_cast<uint8_t>(~(sign | (exponent << 4) | mantissa));
}

constexpr int16_t MulawToLinearReference(uint8_t mulaw) {
  mulaw = static_cast<uint8_t>(~mulaw);
  int sign = mulaw & 0x80;
  int exponent = (mulaw >> 4) & 0x07;
  int mantissa = mulaw & 0x0F;
  int value = ((mantissa << 3) + kMulawBias) << exponent;
  value -= kMulawBias;
  return static_cast<int16_t>(sign != 0 ? -value : value);
}

constexpr uint8_t LinearToAlawReference(int16_t sample) {
  int sign = ((~sample) >> 8) & 0x80;  // A-law sign bit: 1 for positive.
  int value = sample;
  if (sign == 0) {
    value = -value - 1;  // Negative values (two's complement safe for -32768).
  }
  value = std::min(value, 32635);
  uint8_t alaw = 0;
  if (value >= 256) {
    int exponent = 7;
    for (int mask = 0x4000; (value & mask) == 0 && exponent > 1; mask >>= 1) {
      --exponent;
    }
    int mantissa = (value >> (exponent + 3)) & 0x0F;
    alaw = static_cast<uint8_t>((exponent << 4) | mantissa);
  } else {
    alaw = static_cast<uint8_t>(value >> 4);
  }
  return static_cast<uint8_t>((alaw ^ 0x55) | sign);
}

constexpr int16_t AlawToLinearReference(uint8_t alaw) {
  alaw ^= 0x55;
  int sign = alaw & 0x80;
  int exponent = (alaw >> 4) & 0x07;
  int mantissa = alaw & 0x0F;
  int value = 0;
  if (exponent >= 1) {
    value = ((mantissa << 4) + 0x108) << (exponent - 1);
  } else {
    value = (mantissa << 4) + 8;
  }
  return static_cast<int16_t>(sign != 0 ? value : -value);
}

// Decodes interleaved bytes in `encoding` into float samples in [-1, 1].
// The byte count must be a multiple of BytesPerSample(encoding); trailing
// partial samples are ignored. The span form decodes payload views (e.g.
// slices of an arrival buffer) without a copy.
std::vector<float> DecodeToFloat(const uint8_t* data, size_t size,
                                 AudioEncoding encoding);
inline std::vector<float> DecodeToFloat(const Bytes& data,
                                        AudioEncoding encoding) {
  return DecodeToFloat(data.data(), data.size(), encoding);
}

// Encodes float samples (clamped to [-1, 1]) into interleaved bytes,
// rounding to the nearest code with ties to even (lrint's default mode).
// A NaN sample encodes as 0.0 (silence): s16 00 00, s24 00 00 00, u8 0x80,
// mu-law 0xff, A-law 0xd5. +/-inf clamp to full scale like any |x| > 1.
Bytes EncodeFromFloat(const std::vector<float>& samples,
                      AudioEncoding encoding);

// Float <-> int16 helpers used throughout the codec. FloatToS16 clamps,
// rounds and maps NaN exactly as EncodeFromFloat does.
int16_t FloatToS16(float x);
float S16ToFloat(int16_t x);

}  // namespace espk

#endif  // SRC_AUDIO_SAMPLE_CONVERT_H_
