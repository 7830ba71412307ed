#include "src/codec/vorbix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/dsp/rice.h"

namespace espk {

namespace {
// Quantized coefficients are clamped to 25 bits; in practice psychoacoustic
// steps keep them far smaller, but corrupt/adversarial packets must not be
// able to force huge unary runs (DoS resistance, §5.1).
constexpr int32_t kMaxQuantMagnitude = 1 << 24;

size_t Log2Exact(size_t v) {
  size_t log = 0;
  while ((size_t{1} << log) < v) {
    ++log;
  }
  return log;
}

// Widest band in a layout, for presizing the per-band value scratch.
size_t MaxBandWidth(const BandLayout& layout) {
  size_t widest = 0;
  for (size_t b = 0; b < layout.num_bands(); ++b) {
    widest = std::max(widest, layout.band_begin[b + 1] - layout.band_begin[b]);
  }
  return widest;
}
}  // namespace

uint8_t QuantStepToIndex(double step) {
  step = std::max(step, 1e-9);
  double idx = std::round(std::log2(step) * 4.0) + 128.0;
  return static_cast<uint8_t>(std::clamp(idx, 0.0, 255.0));
}

double IndexToQuantStep(uint8_t index) {
  return std::exp2((static_cast<double>(index) - 128.0) / 4.0);
}

VorbixEncoder::VorbixEncoder(const AudioConfig& config, int quality)
    : config_(config),
      quality_(std::clamp(quality, kMinQuality, kMaxQuality)),
      mdct_(kVorbixHalfLength),
      layout_(MakeBandLayout(config.sample_rate, kVorbixHalfLength)),
      psy_(layout_, config.sample_rate, kVorbixHalfLength) {
  coeffs_.resize(kVorbixHalfLength);
  steps_.reserve(layout_.num_bands());
  band_values_.reserve(MaxBandWidth(layout_));
}

Result<Bytes> VorbixEncoder::EncodePacket(
    const std::vector<float>& interleaved) {
  const auto channels = static_cast<size_t>(config_.channels);
  if (interleaved.empty() || interleaved.size() % channels != 0) {
    return InvalidArgumentError(
        "vorbix encode: sample count not a multiple of channel count");
  }
  const size_t frames = interleaved.size() / channels;
  const size_t m = kVorbixHalfLength;
  // Zero-pad so the TDAC chain reconstructs the packet exactly:
  // [M zeros][signal, rounded up to a multiple of M][M zeros].
  const size_t padded_frames = (frames + m - 1) / m * m;
  const size_t total = padded_frames + 2 * m;
  const size_t blocks = padded_frames / m + 1;
  const bool use_ms = mid_side_ && channels == 2;

  header_.Clear();
  header_.WriteU16(kVorbixMagic);
  header_.WriteU8(kVorbixVersion);
  header_.WriteU8(static_cast<uint8_t>(quality_));
  header_.WriteU8(use_ms ? kVorbixFlagMidSide : 0);
  header_.WriteU8(static_cast<uint8_t>(channels));
  header_.WriteU8(static_cast<uint8_t>(Log2Exact(m)));
  header_.WriteU32(static_cast<uint32_t>(frames));

  bits_.Clear();
  padded_.resize(total);
  for (size_t ch = 0; ch < channels; ++ch) {
    std::fill(padded_.begin(), padded_.end(), 0.0);
    if (use_ms) {
      // Channel 0 carries mid=(L+R)/2, channel 1 side=(L-R)/2.
      for (size_t f = 0; f < frames; ++f) {
        double left = interleaved[f * 2];
        double right = interleaved[f * 2 + 1];
        padded_[m + f] =
            ch == 0 ? (left + right) * 0.5 : (left - right) * 0.5;
      }
    } else {
      for (size_t f = 0; f < frames; ++f) {
        padded_[m + f] = interleaved[f * channels + ch];
      }
    }
    for (size_t b = 0; b < blocks; ++b) {
      // The MDCT reads its 2M-sample block straight out of the padded
      // signal; no slice copy.
      mdct_.Forward(padded_.data() + b * m, coeffs_.data());
      psy_.ComputeSteps(coeffs_, quality_, &steps_);
      for (size_t band = 0; band < layout_.num_bands(); ++band) {
        uint8_t idx = QuantStepToIndex(steps_[band]);
        // Quantize with the step the decoder will reconstruct, not the
        // ideal one, so round-trips are consistent. One divide per band,
        // and inline round-half-away-from-zero (llround is a libm call).
        double inv_step = 1.0 / IndexToQuantStep(idx);
        band_values_.clear();
        bool all_zero = true;
        for (size_t i = layout_.band_begin[band];
             i < layout_.band_begin[band + 1]; ++i) {
          const double scaled = coeffs_[i] * inv_step;
          auto q = static_cast<int64_t>(scaled >= 0.0 ? scaled + 0.5
                                                      : scaled - 0.5);
          q = std::clamp<int64_t>(q, -kMaxQuantMagnitude, kMaxQuantMagnitude);
          all_zero = all_zero && q == 0;
          band_values_.push_back(static_cast<int32_t>(q));
        }
        // Bands quantized entirely to zero (masked or silent) cost one bit.
        if (all_zero) {
          bits_.WriteBit(false);
          continue;
        }
        bits_.WriteBit(true);
        bits_.WriteBits(idx, 8);
        RiceEncodeBlock(&bits_, band_values_);
      }
    }
  }

  // Single output allocation: exact-size reserve, then two bulk copies.
  const Bytes& payload = bits_.Flush();
  Bytes out;
  out.reserve(header_.size() + payload.size());
  out.insert(out.end(), header_.bytes().begin(), header_.bytes().end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

VorbixDecoder::VorbixDecoder(const AudioConfig& config, int /*quality*/)
    : config_(config),
      mdct_(kVorbixHalfLength),
      layout_(MakeBandLayout(config.sample_rate, kVorbixHalfLength)) {
  coeffs_.resize(kVorbixHalfLength);
  block_.resize(2 * kVorbixHalfLength);
  values_.reserve(MaxBandWidth(layout_));
}

Result<std::vector<float>> VorbixDecoder::DecodePacket(const uint8_t* data,
                                                       size_t size) {
  ByteReader header(data, size);
  Result<uint16_t> magic = header.ReadU16();
  if (!magic.ok() || *magic != kVorbixMagic) {
    return DataLossError("vorbix: bad magic");
  }
  Result<uint8_t> version = header.ReadU8();
  if (!version.ok() || *version != kVorbixVersion) {
    return DataLossError("vorbix: unsupported version");
  }
  Result<uint8_t> quality = header.ReadU8();
  Result<uint8_t> flags = header.ReadU8();
  Result<uint8_t> channels = header.ReadU8();
  Result<uint8_t> log2m = header.ReadU8();
  Result<uint32_t> frames32 = header.ReadU32();
  if (!frames32.ok()) {
    return DataLossError("vorbix: truncated header");
  }
  (void)quality;
  const bool use_ms =
      flags.ok() && (*flags & kVorbixFlagMidSide) != 0;
  if (use_ms && *channels != 2) {
    return DataLossError("vorbix: mid/side flag on non-stereo stream");
  }
  if (*channels != config_.channels) {
    return DataLossError("vorbix: channel count mismatch");
  }
  const size_t m = kVorbixHalfLength;
  if (*log2m != Log2Exact(m)) {
    return DataLossError("vorbix: unsupported block size");
  }
  const size_t frames = *frames32;
  // Defensive cap: 16 s of CD audio per packet is far beyond what the
  // rebroadcaster ever sends; anything larger is a corrupt/hostile packet.
  if (frames == 0 || frames > (1u << 20)) {
    return DataLossError("vorbix: implausible frame count");
  }
  const size_t padded_frames = (frames + m - 1) / m * m;
  const size_t total = padded_frames + 2 * m;
  const size_t blocks = padded_frames / m + 1;

  // Read the entropy-coded tail in place; no copy of the payload.
  BitReader bits(data + header.position(), size - header.position());

  std::vector<float> interleaved(frames * *channels, 0.0f);
  recon_.resize(total);
  for (size_t ch = 0; ch < *channels; ++ch) {
    std::fill(recon_.begin(), recon_.end(), 0.0);
    for (size_t b = 0; b < blocks; ++b) {
      for (size_t band = 0; band < layout_.num_bands(); ++band) {
        size_t count =
            layout_.band_begin[band + 1] - layout_.band_begin[band];
        Result<bool> present = bits.ReadBit();
        if (!present.ok()) {
          return DataLossError("vorbix: truncated band flag");
        }
        if (!*present) {
          std::fill(
              coeffs_.begin() + static_cast<long>(layout_.band_begin[band]),
              coeffs_.begin() +
                  static_cast<long>(layout_.band_begin[band + 1]),
              0.0);
          continue;
        }
        Result<uint64_t> idx = bits.ReadBits(8);
        if (!idx.ok()) {
          return DataLossError("vorbix: truncated scalefactor");
        }
        double step = IndexToQuantStep(static_cast<uint8_t>(*idx));
        Status decoded = RiceDecodeBlockInto(&bits, count, &values_);
        if (!decoded.ok()) {
          return decoded;
        }
        for (size_t i = 0; i < count; ++i) {
          coeffs_[layout_.band_begin[band] + i] =
              static_cast<double>(values_[i]) * step;
        }
      }
      mdct_.Inverse(coeffs_.data(), block_.data());
      for (size_t n = 0; n < 2 * m; ++n) {
        recon_[b * m + n] += block_[n];
      }
    }
    if (use_ms) {
      if (ch == 0) {
        mid_saved_.assign(recon_.begin() + static_cast<long>(m),
                          recon_.begin() + static_cast<long>(m + frames));
      } else {
        for (size_t f = 0; f < frames; ++f) {
          double mid = mid_saved_[f];
          double side = recon_[m + f];
          interleaved[f * 2] = static_cast<float>(mid + side);
          interleaved[f * 2 + 1] = static_cast<float>(mid - side);
        }
      }
    } else {
      for (size_t f = 0; f < frames; ++f) {
        interleaved[f * *channels + ch] = static_cast<float>(recon_[m + f]);
      }
    }
  }
  return interleaved;
}

}  // namespace espk
