#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>

#include "src/audio/analysis.h"
#include "src/audio/generator.h"
#include "src/audio/sample_convert.h"
#include "src/base/prng.h"
#include "src/codec/codec.h"
#include "src/codec/vorbix.h"

// Counting replacements for the global allocation functions, backing the
// steady-state zero-allocation test below. Replacement operator new must be
// a non-inline namespace-scope function, hence file scope here; every
// allocation in the test binary (gtest included) routes through it, so the
// test reads deltas across exactly the calls it measures.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// noinline: if the malloc/free bodies inline into callers, GCC's
// -Wmismatched-new-delete cross-pairs them with the visible new/delete
// expressions and raises false positives.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (size == 0) {
    size = 1;
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace espk {
namespace {

std::vector<float> MakeContent(SignalGenerator* gen, const AudioConfig& config,
                               int64_t frames) {
  std::vector<float> samples;
  gen->Generate(frames, config.channels, config.sample_rate, &samples);
  return samples;
}

// ------------------------------------------------------------- Raw codec --

TEST(RawCodecTest, S16RoundTripIsLossless) {
  AudioConfig cd = AudioConfig::CdQuality();
  auto enc = CreateEncoder(CodecId::kRaw, cd, 0);
  auto dec = CreateDecoder(CodecId::kRaw, cd, 0);
  ASSERT_TRUE(enc.ok() && dec.ok());

  MusicLikeGenerator gen(1);
  std::vector<float> in = MakeContent(&gen, cd, 4410);
  // Quantize through s16 first so the reference is representable.
  std::vector<float> in_s16 =
      DecodeToFloat(EncodeFromFloat(in, cd.encoding), cd.encoding);

  Result<Bytes> wire = (*enc)->EncodePacket(in_s16);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->size(), in.size() * 2);  // 2 bytes per s16 sample.
  Result<std::vector<float>> out = (*dec)->DecodePacket(*wire);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), in_s16.size());
  for (size_t i = 0; i < in_s16.size(); ++i) {
    EXPECT_FLOAT_EQ((*out)[i], in_s16[i]);
  }
}

TEST(RawCodecTest, MulawRoundTripWithinCompandingError) {
  AudioConfig phone = AudioConfig::PhoneQuality();
  auto enc = CreateEncoder(CodecId::kRaw, phone, 0);
  auto dec = CreateDecoder(CodecId::kRaw, phone, 0);
  SpeechLikeGenerator gen(2);
  std::vector<float> in = MakeContent(&gen, phone, 8000);
  Result<Bytes> wire = (*enc)->EncodePacket(in);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->size(), in.size());  // 1 byte per sample.
  Result<std::vector<float>> out = (*dec)->DecodePacket(*wire);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(SnrDb(in, *out), 30.0);  // mu-law gives ~35-38 dB on speech.
}

TEST(RawCodecTest, RejectsPartialFrames) {
  AudioConfig cd = AudioConfig::CdQuality();
  auto dec = CreateDecoder(CodecId::kRaw, cd, 0);
  Bytes odd(7, 0);  // Not a multiple of 4-byte frames.
  EXPECT_FALSE((*dec)->DecodePacket(odd).ok());
}

TEST(RawCodecTest, RejectsMisalignedSampleCount) {
  AudioConfig cd = AudioConfig::CdQuality();
  auto enc = CreateEncoder(CodecId::kRaw, cd, 0);
  std::vector<float> odd(7, 0.0f);  // Stereo needs even sample counts.
  EXPECT_FALSE((*enc)->EncodePacket(odd).ok());
}

// ---------------------------------------------------------------- Vorbix --

struct QualityCase {
  int quality;
  double min_snr_db;
  double min_compression;  // vs raw s16 size
};

class VorbixQuality : public ::testing::TestWithParam<QualityCase> {};

TEST_P(VorbixQuality, MusicSnrAndCompression) {
  const QualityCase& tc = GetParam();
  AudioConfig cd = AudioConfig::CdQuality();
  auto enc = CreateEncoder(CodecId::kVorbix, cd, tc.quality);
  auto dec = CreateDecoder(CodecId::kVorbix, cd, tc.quality);
  ASSERT_TRUE(enc.ok() && dec.ok());

  MusicLikeGenerator gen(7);
  std::vector<float> in = MakeContent(&gen, cd, 44100 / 2);  // 0.5 s.
  Result<Bytes> wire = (*enc)->EncodePacket(in);
  ASSERT_TRUE(wire.ok());
  Result<std::vector<float>> out = (*dec)->DecodePacket(*wire);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->size(), in.size());

  double snr = SnrDb(in, *out);
  double raw_size = static_cast<double>(in.size()) * 2.0;
  double ratio = raw_size / static_cast<double>(wire->size());
  EXPECT_GE(snr, tc.min_snr_db) << "quality " << tc.quality;
  EXPECT_GE(ratio, tc.min_compression) << "quality " << tc.quality;
}

INSTANTIATE_TEST_SUITE_P(
    QualitySweep, VorbixQuality,
    ::testing::Values(QualityCase{0, 8.0, 6.0}, QualityCase{4, 14.0, 4.0},
                      QualityCase{8, 22.0, 2.5}, QualityCase{10, 28.0, 1.8}));

TEST(VorbixTest, HigherQualityNeverSmaller) {
  AudioConfig cd = AudioConfig::CdQuality();
  MusicLikeGenerator gen(9);
  std::vector<float> in = MakeContent(&gen, cd, 8192);
  size_t prev_size = 0;
  double prev_snr = -1e9;
  for (int q : {0, 5, 10}) {
    auto enc = CreateEncoder(CodecId::kVorbix, cd, q);
    auto dec = CreateDecoder(CodecId::kVorbix, cd, q);
    Bytes wire = *(*enc)->EncodePacket(in);
    auto out = *(*dec)->DecodePacket(wire);
    double snr = SnrDb(in, out);
    EXPECT_GE(wire.size(), prev_size);
    EXPECT_GE(snr, prev_snr);
    prev_size = wire.size();
    prev_snr = snr;
  }
}

TEST(VorbixTest, PacketsAreSelfContained) {
  // Decoding packets out of order must give the same PCM as in order —
  // this is what lets a speaker tune in mid-stream (§2.3).
  AudioConfig cd = AudioConfig::CdQuality();
  auto enc = CreateEncoder(CodecId::kVorbix, cd, 8);
  auto dec = CreateDecoder(CodecId::kVorbix, cd, 8);
  MusicLikeGenerator gen(11);
  std::vector<float> a = MakeContent(&gen, cd, 4096);
  std::vector<float> b = MakeContent(&gen, cd, 4096);
  Bytes wa = *(*enc)->EncodePacket(a);
  Bytes wb = *(*enc)->EncodePacket(b);

  // Decode b first, then a; then a again.
  auto out_b = *(*dec)->DecodePacket(wb);
  auto out_a1 = *(*dec)->DecodePacket(wa);
  auto out_a2 = *(*dec)->DecodePacket(wa);
  EXPECT_EQ(out_a1, out_a2);
  EXPECT_GT(SnrDb(a, out_a1), 20.0);
  EXPECT_GT(SnrDb(b, out_b), 20.0);
}

TEST(VorbixTest, ArbitraryFrameCountsRoundTrip) {
  AudioConfig cfg{22050, 1, AudioEncoding::kLinearS16};
  auto enc = CreateEncoder(CodecId::kVorbix, cfg, 9);
  auto dec = CreateDecoder(CodecId::kVorbix, cfg, 9);
  SineGenerator gen(880.0);
  for (int64_t frames : {1, 7, 511, 512, 513, 1000, 5000}) {
    std::vector<float> in = MakeContent(&gen, cfg, frames);
    Result<Bytes> wire = (*enc)->EncodePacket(in);
    ASSERT_TRUE(wire.ok()) << frames;
    Result<std::vector<float>> out = (*dec)->DecodePacket(*wire);
    ASSERT_TRUE(out.ok()) << frames;
    EXPECT_EQ(out->size(), in.size()) << frames;
  }
}

TEST(VorbixTest, SilenceCompressesExtremely) {
  AudioConfig cd = AudioConfig::CdQuality();
  auto enc = CreateEncoder(CodecId::kVorbix, cd, 10);
  std::vector<float> silence(44100 * 2, 0.0f);  // 1 s stereo.
  Bytes wire = *(*enc)->EncodePacket(silence);
  double ratio = static_cast<double>(silence.size() * 2) /
                 static_cast<double>(wire.size());
  EXPECT_GT(ratio, 20.0);
}

TEST(VorbixTest, StereoChannelsStayIndependent) {
  AudioConfig cd = AudioConfig::CdQuality();
  auto enc = CreateEncoder(CodecId::kVorbix, cd, 10);
  auto dec = CreateDecoder(CodecId::kVorbix, cd, 10);
  // Left = 440 Hz tone, right = silence.
  SineGenerator gen(440.0, 0.5f);
  std::vector<float> mono;
  gen.Generate(8192, 1, 44100, &mono);
  std::vector<float> in(mono.size() * 2);
  for (size_t f = 0; f < mono.size(); ++f) {
    in[2 * f] = mono[f];
    in[2 * f + 1] = 0.0f;
  }
  auto out = *(*dec)->DecodePacket(*(*enc)->EncodePacket(in));
  std::vector<float> left(mono.size());
  std::vector<float> right(mono.size());
  for (size_t f = 0; f < mono.size(); ++f) {
    left[f] = out[2 * f];
    right[f] = out[2 * f + 1];
  }
  EXPECT_GT(SnrDb(mono, left), 25.0);
  EXPECT_LT(Rms(right), 0.002);  // Right stays (near) silent.
}

TEST(VorbixTest, RejectsGarbageWithoutCrashing) {
  AudioConfig cd = AudioConfig::CdQuality();
  auto dec = CreateDecoder(CodecId::kVorbix, cd, 10);
  Prng prng(43);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes garbage(prng.NextBelow(500) + 1);
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(prng.NextU64());
    }
    // Must return an error or (rarely) decode noise — never crash.
    (void)(*dec)->DecodePacket(garbage);
  }
  SUCCEED();
}

TEST(VorbixTest, RejectsBitFlippedPacketsGracefully) {
  AudioConfig cd = AudioConfig::CdQuality();
  auto enc = CreateEncoder(CodecId::kVorbix, cd, 8);
  auto dec = CreateDecoder(CodecId::kVorbix, cd, 8);
  MusicLikeGenerator gen(13);
  std::vector<float> in = MakeContent(&gen, cd, 4096);
  Bytes wire = *(*enc)->EncodePacket(in);
  Prng prng(47);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes corrupt = wire;
    size_t pos = prng.NextBelow(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1u << prng.NextBelow(8));
    // Either a parse error or decoded (wrong) audio; never a crash/UB.
    Result<std::vector<float>> out = (*dec)->DecodePacket(corrupt);
    if (out.ok()) {
      EXPECT_EQ(out->size(), in.size());
    }
  }
}

TEST(VorbixTest, ChannelMismatchIsAnError) {
  AudioConfig stereo = AudioConfig::CdQuality();
  AudioConfig mono = stereo;
  mono.channels = 1;
  auto enc = CreateEncoder(CodecId::kVorbix, stereo, 8);
  auto dec = CreateDecoder(CodecId::kVorbix, mono, 8);
  MusicLikeGenerator gen(15);
  std::vector<float> in = MakeContent(&gen, stereo, 2048);
  Bytes wire = *(*enc)->EncodePacket(in);
  EXPECT_FALSE((*dec)->DecodePacket(wire).ok());
}

TEST(VorbixTest, EmptyInputIsAnError) {
  AudioConfig cd = AudioConfig::CdQuality();
  auto enc = CreateEncoder(CodecId::kVorbix, cd, 8);
  EXPECT_FALSE((*enc)->EncodePacket({}).ok());
  auto dec = CreateDecoder(CodecId::kVorbix, cd, 8);
  EXPECT_FALSE((*dec)->DecodePacket(Bytes{}).ok());
}

TEST(VorbixTest, SteadyStateIsOneAllocationPerPacket) {
  // After the per-stream scratch arenas warm up, the only heap traffic per
  // packet is the output buffer itself: one allocation for EncodePacket's
  // Bytes, one for DecodePacket's interleaved floats (DESIGN.md, "DSP plans
  // and scratch ownership"). This pins that property with the counting
  // operator new above; any reintroduced per-packet copy or temporary
  // vector fails it.
  AudioConfig cd = AudioConfig::CdQuality();
  VorbixEncoder encoder(cd, 10);
  VorbixDecoder decoder(cd, 10);
  MusicLikeGenerator gen(7);
  std::vector<float> samples = MakeContent(&gen, cd, 4096);

  for (int i = 0; i < 3; ++i) {  // Warm the arenas to steady state.
    Result<Bytes> enc = encoder.EncodePacket(samples);
    ASSERT_TRUE(enc.ok());
    ASSERT_TRUE(decoder.DecodePacket(*enc).ok());
  }

  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  Result<Bytes> enc = encoder.EncodePacket(samples);
  const uint64_t encode_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(encode_allocs, 1u);

  before = g_heap_allocs.load(std::memory_order_relaxed);
  Result<std::vector<float>> dec = decoder.DecodePacket(*enc);
  const uint64_t decode_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(decode_allocs, 1u);
}

TEST(VorbixTest, LowSampleRateMonoWorks) {
  // The codec must work on low-bitrate channels too, even though the
  // rebroadcaster normally leaves those raw (§2.2).
  AudioConfig phone{8000, 1, AudioEncoding::kLinearS16};
  auto enc = CreateEncoder(CodecId::kVorbix, phone, 10);
  auto dec = CreateDecoder(CodecId::kVorbix, phone, 10);
  SpeechLikeGenerator gen(17);
  std::vector<float> in = MakeContent(&gen, phone, 8000);
  auto out = *(*dec)->DecodePacket(*(*enc)->EncodePacket(in));
  EXPECT_EQ(out.size(), in.size());
  EXPECT_GT(SnrDb(in, out), 12.0);
}

TEST(VorbixTest, MidSideShrinksCorrelatedStereo) {
  // Joint stereo: identical L/R content makes the side channel silent, so
  // M/S should cost barely more than mono while plain L/R pays double.
  AudioConfig cd = AudioConfig::CdQuality();
  MusicLikeGenerator gen(19);
  std::vector<float> in = MakeContent(&gen, cd, 16384);  // L == R.

  VorbixEncoder ms(cd, 10);
  ms.set_mid_side(true);
  VorbixEncoder lr(cd, 10);
  lr.set_mid_side(false);
  Bytes ms_wire = *ms.EncodePacket(in);
  Bytes lr_wire = *lr.EncodePacket(in);
  EXPECT_LT(ms_wire.size(), lr_wire.size() * 6 / 10);  // >=40% smaller.

  // Both decode back faithfully.
  VorbixDecoder dec(cd, 10);
  EXPECT_GT(SnrDb(in, *dec.DecodePacket(ms_wire)), 25.0);
  EXPECT_GT(SnrDb(in, *dec.DecodePacket(lr_wire)), 25.0);
}

TEST(VorbixTest, MidSidePreservesUncorrelatedStereo) {
  // Fully uncorrelated channels are the worst case for M/S; it must still
  // round-trip correctly (and not cost much).
  AudioConfig cd = AudioConfig::CdQuality();
  WhiteNoiseGenerator left_gen(1, 0.3f);
  WhiteNoiseGenerator right_gen(2, 0.3f);
  std::vector<float> left;
  std::vector<float> right;
  left_gen.Generate(8192, 1, 44100, &left);
  right_gen.Generate(8192, 1, 44100, &right);
  std::vector<float> in(left.size() * 2);
  for (size_t f = 0; f < left.size(); ++f) {
    in[2 * f] = left[f];
    in[2 * f + 1] = right[f];
  }
  VorbixEncoder enc(cd, 10);
  VorbixDecoder dec(cd, 10);
  std::vector<float> out = *dec.DecodePacket(*enc.EncodePacket(in));
  ASSERT_EQ(out.size(), in.size());
  // Noise through a lossy codec at q10: modest but positive SNR, and the
  // channels stay distinct.
  std::vector<float> out_left(left.size());
  std::vector<float> out_right(left.size());
  for (size_t f = 0; f < left.size(); ++f) {
    out_left[f] = out[2 * f];
    out_right[f] = out[2 * f + 1];
  }
  EXPECT_GT(SnrDb(left, out_left), 5.0);
  EXPECT_GT(SnrDb(right, out_right), 5.0);
  EXPECT_LT(FindAlignment(out_left, out_right, 0).correlation, 0.3);
}

TEST(VorbixTest, MidSideFlagOnMonoRejected) {
  // Craft a mono packet with the M/S flag set: decoder must refuse.
  AudioConfig mono{44100, 1, AudioEncoding::kLinearS16};
  VorbixEncoder enc(mono, 10);
  SineGenerator gen(440.0);
  std::vector<float> in = MakeContent(&gen, mono, 2048);
  Bytes wire = *enc.EncodePacket(in);
  wire[4] |= kVorbixFlagMidSide;  // Flags byte (magic u16, version, quality, flags).
  VorbixDecoder dec(mono, 10);
  EXPECT_FALSE(dec.DecodePacket(wire).ok());
}

// FNV-1a, 64-bit, continued from `hash`.
uint64_t Fnv1a(const uint8_t* data, size_t size, uint64_t hash) {
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 0x100000001b3ull;
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

struct PinnedCase {
  const char* signal;  // "music", "noise" or "sine".
  int channels;
  int quality;
  uint64_t bytes_hash;  // FNV-1a of every encoded packet, in order.
  uint64_t pcm_hash;    // FNV-1a of every decoded float's bits, in order.
};

// The Vorbix bitstream and decoded PCM are a contract: a speaker built from
// another revision must decode the same bytes to the same samples. These
// hashes pin both over 40 packets of 4096 frames plus one odd-length packet
// per case; a kernel rewrite (MDCT, bit I/O) must leave every one
// unchanged.
TEST(VorbixPinnedTest, EncodedBytesAndDecodedPcmAreBitIdentical) {
  const PinnedCase kCases[] = {
      {"music", 1, 0, 0xe69f10ca0f141d4bull, 0xa1d73dc486f3f6c2ull},
      {"music", 1, 5, 0x03d7f5c034e69ccbull, 0x0f2c1fd0bc6b8f42ull},
      {"music", 1, 10, 0x58e80ab64271882bull, 0xa4f260f1b98cd250ull},
      {"music", 2, 0, 0x849bbc1eb998ecb1ull, 0x5b2f6d942cce60c9ull},
      {"music", 2, 5, 0x76d838e1f509e8c9ull, 0x610924f576407db1ull},
      {"music", 2, 10, 0x9ae013ebc9d7d6fbull, 0x70f28d856887e611ull},
      {"noise", 1, 0, 0x127fe1cc150ea178ull, 0xd95fbb1ba299a171ull},
      {"noise", 1, 5, 0x028ccf4617a58295ull, 0x3c71652fc19a4a01ull},
      {"noise", 1, 10, 0xb6524e0176ec8916ull, 0x2f1b1b77b38ff0ccull},
      {"noise", 2, 0, 0xdce8d917c8630d28ull, 0xb2da4dec5693fbe1ull},
      {"noise", 2, 5, 0xc33c030856f6c2e1ull, 0x32f82c60cbee7f9eull},
      {"noise", 2, 10, 0xd90df87fa03eb7baull, 0xa91663d8c03b00d3ull},
      {"sine", 1, 0, 0xd6ccb5a4e0c71ae0ull, 0xcd55f47f83efda05ull},
      {"sine", 1, 5, 0x4a391128d9eaa718ull, 0xcd79b5fd17886641ull},
      {"sine", 1, 10, 0x52b562c165b6456bull, 0xa70974a1ee2e7f44ull},
      {"sine", 2, 0, 0x14fc6464cc23e432ull, 0x7d3ae2eddc43b7b9ull},
      {"sine", 2, 5, 0xf3619eb947a2308cull, 0x57131efe1a206f6dull},
      {"sine", 2, 10, 0x7e32fb3d8c071521ull, 0x9f80de7ec548a695ull},
  };
  for (const PinnedCase& tc : kCases) {
    AudioConfig config{44100, tc.channels, AudioEncoding::kLinearS16};
    std::unique_ptr<SignalGenerator> gen;
    if (std::string_view(tc.signal) == "music") {
      gen = std::make_unique<MusicLikeGenerator>(21);
    } else if (std::string_view(tc.signal) == "noise") {
      gen = std::make_unique<WhiteNoiseGenerator>(22);
    } else {
      gen = std::make_unique<SineGenerator>(997.0);
    }
    VorbixEncoder enc(config, tc.quality);
    VorbixDecoder dec(config, tc.quality);
    uint64_t bytes_hash = kFnvOffset;
    uint64_t pcm_hash = kFnvOffset;
    for (int packet = 0; packet <= 40; ++packet) {
      const int64_t frames = packet < 40 ? 4096 : 3001;
      std::vector<float> in = MakeContent(gen.get(), config, frames);
      Result<Bytes> wire = enc.EncodePacket(in);
      ASSERT_TRUE(wire.ok());
      bytes_hash = Fnv1a(wire->data(), wire->size(), bytes_hash);
      Result<std::vector<float>> out = dec.DecodePacket(*wire);
      ASSERT_TRUE(out.ok()) << out.status();
      for (float s : *out) {
        const auto bits = std::bit_cast<uint32_t>(s);
        const uint8_t le[4] = {
            static_cast<uint8_t>(bits), static_cast<uint8_t>(bits >> 8),
            static_cast<uint8_t>(bits >> 16), static_cast<uint8_t>(bits >> 24)};
        pcm_hash = Fnv1a(le, 4, pcm_hash);
      }
    }
    const std::string name = std::string(tc.signal) + " ch" +
                             std::to_string(tc.channels) + " q" +
                             std::to_string(tc.quality);
    EXPECT_EQ(bytes_hash, tc.bytes_hash) << name << std::hex << " bytes 0x"
                                         << bytes_hash;
    EXPECT_EQ(pcm_hash, tc.pcm_hash) << name << std::hex << " pcm 0x"
                                     << pcm_hash;
  }
}

TEST(VorbixTest, HostileBlockSizeByteIsDataLoss) {
  // The header's log2(M) byte is untrusted: values far past the word size
  // must be rejected as corrupt, not used as a shift count.
  AudioConfig cd = AudioConfig::CdQuality();
  VorbixEncoder enc(cd, 5);
  VorbixDecoder dec(cd, 5);
  MusicLikeGenerator gen(23);
  Bytes wire = *enc.EncodePacket(MakeContent(&gen, cd, 2048));
  ASSERT_TRUE(dec.DecodePacket(wire).ok());
  for (int log2m : {0, 8, 10, 63, 64, 73, 255}) {
    Bytes hostile = wire;
    // Byte 6 follows the magic (2 bytes), version, quality, flags, channels.
    hostile[6] = static_cast<uint8_t>(log2m);
    Result<std::vector<float>> out = dec.DecodePacket(hostile);
    ASSERT_FALSE(out.ok()) << "log2m " << log2m;
    EXPECT_EQ(out.status().code(), StatusCode::kDataLoss) << "log2m " << log2m;
  }
}

TEST(VorbixTest, EveryStrictPrefixOfAPacketIsAnError) {
  // Each prefix is a heap copy sized exactly to its length, so a decoder
  // read past the slice lands outside the allocation (ASan builds flag it).
  AudioConfig cd = AudioConfig::CdQuality();
  VorbixEncoder enc(cd, 5);
  VorbixDecoder dec(cd, 5);
  MusicLikeGenerator gen(29);
  Bytes wire = *enc.EncodePacket(MakeContent(&gen, cd, 4096));
  ASSERT_TRUE(dec.DecodePacket(wire).ok());
  for (size_t len = 0; len < wire.size(); ++len) {
    auto prefix = std::make_unique<uint8_t[]>(len);
    std::copy(wire.begin(), wire.begin() + static_cast<long>(len),
              prefix.get());
    EXPECT_FALSE(dec.DecodePacket(prefix.get(), len).ok()) << "len " << len;
  }
}

TEST(CodecFactoryTest, QuantStepIndexRoundTrip) {
  for (double step : {1e-6, 0.001, 0.1, 1.0, 64.0, 1e4}) {
    uint8_t idx = QuantStepToIndex(step);
    double back = IndexToQuantStep(idx);
    // Quarter-octave resolution: within ~9%.
    EXPECT_NEAR(std::log2(back), std::log2(step), 0.13) << step;
  }
}

TEST(CodecFactoryTest, RejectsInvalidConfig) {
  AudioConfig bad = AudioConfig::CdQuality();
  bad.channels = 0;
  EXPECT_FALSE(CreateEncoder(CodecId::kVorbix, bad, 5).ok());
  EXPECT_FALSE(CreateDecoder(CodecId::kRaw, bad, 5).ok());
}

TEST(CodecFactoryTest, NamesAreStable) {
  EXPECT_EQ(CodecIdName(CodecId::kRaw), "raw");
  EXPECT_EQ(CodecIdName(CodecId::kVorbix), "vorbix");
}

}  // namespace
}  // namespace espk
