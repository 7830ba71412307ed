#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/audio/analysis.h"
#include "src/audio/format.h"
#include "src/audio/generator.h"
#include "src/audio/pcm.h"
#include "src/audio/sample_convert.h"
#include "src/audio/wav.h"
#include "src/base/prng.h"

namespace espk {
namespace {

// ---------------------------------------------------------------- Format --

TEST(AudioConfigTest, CdQualityNumbers) {
  AudioConfig cd = AudioConfig::CdQuality();
  EXPECT_EQ(cd.bytes_per_frame(), 4);
  EXPECT_EQ(cd.bytes_per_second(), 176400);
  // The paper's "around 1.3Mbps for CD-quality audio" (§2.2): raw payload is
  // 1.41 Mbps; with protocol overhead it lands in the 1.3-1.5 Mbps range.
  EXPECT_NEAR(cd.bits_per_second(), 1.41e6, 0.01e6);
}

TEST(AudioConfigTest, PhoneQualityIs64kbps) {
  AudioConfig phone = AudioConfig::PhoneQuality();
  EXPECT_EQ(phone.bytes_per_second(), 8000);
  EXPECT_DOUBLE_EQ(phone.bits_per_second(), 64000.0);
}

TEST(AudioConfigTest, ValidateRejectsBadValues) {
  AudioConfig c = AudioConfig::CdQuality();
  EXPECT_TRUE(c.Validate().ok());
  c.sample_rate = 100;
  EXPECT_FALSE(c.Validate().ok());
  c = AudioConfig::CdQuality();
  c.channels = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = AudioConfig::CdQuality();
  c.channels = 9;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(AudioConfigTest, SerializeRoundTrip) {
  AudioConfig c{48000, 2, AudioEncoding::kLinearS24};
  ByteWriter w;
  c.Serialize(&w);
  Bytes buf = w.TakeBytes();
  ByteReader r(buf);
  Result<AudioConfig> back = AudioConfig::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, c);
}

TEST(AudioConfigTest, DeserializeRejectsUnknownEncoding) {
  ByteWriter w;
  w.WriteU32(44100);
  w.WriteU8(2);
  w.WriteU8(200);  // Bogus encoding.
  Bytes buf = w.TakeBytes();
  ByteReader r(buf);
  EXPECT_FALSE(AudioConfig::Deserialize(&r).ok());
}

TEST(AudioConfigTest, DurationConversions) {
  AudioConfig cd = AudioConfig::CdQuality();
  EXPECT_EQ(cd.BytesToDuration(176400), kSecond);
  EXPECT_EQ(cd.DurationToBytes(kSecond), 176400);
  EXPECT_EQ(cd.BytesToFrames(176400), 44100);
}

// --------------------------------------------------------------- Company --

TEST(MulawTest, RoundTripIsCloseForAllCodes) {
  // Decode then re-encode must reproduce the same linear value. (Code
  // identity does not hold for all 256 codes: mu-law has both +0 and -0,
  // which decode to the same linear 0.)
  for (int code = 0; code < 256; ++code) {
    int16_t linear = MulawToLinear(static_cast<uint8_t>(code));
    uint8_t back = LinearToMulaw(linear);
    EXPECT_EQ(MulawToLinear(back), linear)
        << "code " << code << " linear " << linear;
  }
}

TEST(MulawTest, KnownAnchors) {
  // Zero encodes to 0xFF (all bits inverted).
  EXPECT_EQ(LinearToMulaw(0), 0xFF);
  EXPECT_EQ(MulawToLinear(0xFF), 0);
  // Sign symmetry within quantization error.
  for (int16_t v : {100, 1000, 10000, 30000}) {
    int16_t pos = MulawToLinear(LinearToMulaw(v));
    int16_t neg = MulawToLinear(LinearToMulaw(static_cast<int16_t>(-v)));
    EXPECT_EQ(pos, -neg);
  }
}

// The shipped converters are table lookups (256-entry decode, 16K-entry
// encode indexed by magnitude >> 1); the constexpr segment-walking reference
// implementations live in sample_convert.h. These sweeps prove the tables
// equal the reference for every representable input — all 65536 linear
// samples and all 256 codes, both laws — so the >>1 index compression
// really is lossless.

TEST(MulawTest, EncodeTableMatchesReferenceExhaustively) {
  for (int s = -32768; s <= 32767; ++s) {
    const auto sample = static_cast<int16_t>(s);
    ASSERT_EQ(LinearToMulaw(sample), LinearToMulawReference(sample))
        << "sample " << s;
  }
}

TEST(MulawTest, DecodeTableMatchesReferenceForAllCodes) {
  for (int code = 0; code < 256; ++code) {
    const auto c = static_cast<uint8_t>(code);
    ASSERT_EQ(MulawToLinear(c), MulawToLinearReference(c)) << "code " << code;
  }
}

TEST(AlawTest, EncodeTableMatchesReferenceExhaustively) {
  for (int s = -32768; s <= 32767; ++s) {
    const auto sample = static_cast<int16_t>(s);
    ASSERT_EQ(LinearToAlaw(sample), LinearToAlawReference(sample))
        << "sample " << s;
  }
}

TEST(AlawTest, DecodeTableMatchesReferenceForAllCodes) {
  for (int code = 0; code < 256; ++code) {
    const auto c = static_cast<uint8_t>(code);
    ASSERT_EQ(AlawToLinear(c), AlawToLinearReference(c)) << "code " << code;
  }
}

TEST(MulawTest, MonotoneOverPositiveRange) {
  int16_t prev = MulawToLinear(LinearToMulaw(0));
  for (int v = 0; v <= 32000; v += 97) {
    int16_t now = MulawToLinear(LinearToMulaw(static_cast<int16_t>(v)));
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(MulawTest, QuantizationErrorIsLogarithmic) {
  // Relative error should stay under ~6% for large amplitudes.
  for (int v = 1000; v <= 32000; v += 501) {
    int16_t rt = MulawToLinear(LinearToMulaw(static_cast<int16_t>(v)));
    EXPECT_NEAR(rt, v, v * 0.06 + 16.0);
  }
}

TEST(AlawTest, RoundTripIsStableForAllCodes) {
  for (int code = 0; code < 256; ++code) {
    int16_t linear = AlawToLinear(static_cast<uint8_t>(code));
    uint8_t back = LinearToAlaw(linear);
    EXPECT_EQ(back, code) << "code " << code << " linear " << linear;
  }
}

TEST(AlawTest, QuantizationErrorBounded) {
  for (int v = -32000; v <= 32000; v += 997) {
    int16_t rt = AlawToLinear(LinearToAlaw(static_cast<int16_t>(v)));
    EXPECT_NEAR(rt, v, std::abs(v) * 0.06 + 40.0);
  }
}

// ------------------------------------------------------- Sample encoding --

class EncodingRoundTrip : public ::testing::TestWithParam<AudioEncoding> {};

TEST_P(EncodingRoundTrip, FloatRoundTripWithinTolerance) {
  AudioEncoding enc = GetParam();
  std::vector<float> in;
  for (int i = -100; i <= 100; ++i) {
    in.push_back(static_cast<float>(i) / 100.0f * 0.99f);
  }
  Bytes wire = EncodeFromFloat(in, enc);
  EXPECT_EQ(wire.size(), in.size() * static_cast<size_t>(BytesPerSample(enc)));
  std::vector<float> out = DecodeToFloat(wire, enc);
  ASSERT_EQ(out.size(), in.size());
  // Tolerance by precision: companded 8-bit is coarse at large amplitude.
  for (size_t i = 0; i < in.size(); ++i) {
    float tol;
    switch (enc) {
      case AudioEncoding::kLinearS16:
        tol = 1.0f / 32000.0f;
        break;
      case AudioEncoding::kLinearS24:
        tol = 1.0f / 8000000.0f;
        break;
      case AudioEncoding::kLinearU8:
        tol = 1.0f / 120.0f;
        break;
      default:  // companded
        tol = std::max(0.004f, std::fabs(in[i]) * 0.07f);
    }
    EXPECT_NEAR(out[i], in[i], tol) << AudioEncodingName(enc) << " @" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodingRoundTrip,
                         ::testing::Values(AudioEncoding::kMulaw,
                                           AudioEncoding::kAlaw,
                                           AudioEncoding::kLinearU8,
                                           AudioEncoding::kLinearS16,
                                           AudioEncoding::kLinearS24));

TEST(SampleConvertTest, ClampsOutOfRangeFloats) {
  std::vector<float> in = {2.0f, -2.0f};
  Bytes wire = EncodeFromFloat(in, AudioEncoding::kLinearS16);
  std::vector<float> out = DecodeToFloat(wire, AudioEncoding::kLinearS16);
  EXPECT_NEAR(out[0], 1.0f, 0.001f);
  EXPECT_NEAR(out[1], -1.0f, 0.001f);
}

// Appends one sample encoded the way EncodeFromFloat did with libm's lrint
// in the default rounding mode (ties to even), NaN mapped to 0 first: the
// reference the libm-free conversion must match byte for byte.
void AppendWithLrint(float x, AudioEncoding encoding, Bytes* out) {
  if (std::isnan(x)) {
    x = 0.0f;
  }
  const float c = std::clamp(x, -1.0f, 1.0f);
  const auto s16 = static_cast<int16_t>(
      std::clamp(static_cast<int32_t>(std::lrintf(c * 32768.0f)), -32768,
                 32767));
  switch (encoding) {
    case AudioEncoding::kMulaw:
      out->push_back(LinearToMulawReference(s16));
      break;
    case AudioEncoding::kAlaw:
      out->push_back(LinearToAlawReference(s16));
      break;
    case AudioEncoding::kLinearU8:
      out->push_back(static_cast<uint8_t>(
          std::clamp(static_cast<int>(std::lrintf(c * 128.0f)) + 128, 0, 255)));
      break;
    case AudioEncoding::kLinearS16:
      out->push_back(static_cast<uint8_t>(s16 & 0xff));
      out->push_back(static_cast<uint8_t>((s16 >> 8) & 0xff));
      break;
    case AudioEncoding::kLinearS24: {
      const auto v = std::clamp(static_cast<int32_t>(std::lrint(c * 8388607.0)),
                                -8388608, 8388607);
      out->push_back(static_cast<uint8_t>(v & 0xff));
      out->push_back(static_cast<uint8_t>((v >> 8) & 0xff));
      out->push_back(static_cast<uint8_t>((v >> 16) & 0xff));
      break;
    }
  }
}

TEST(SampleConvertTest, EncodeMatchesLrintReferenceAtEveryEdge) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> in = {
      nan,   -nan, std::numeric_limits<float>::signaling_NaN(),
      kInf,  -kInf, 0.0f, -0.0f, 1.0f, -1.0f, 1.5f, -1.5f, 1e30f, -1e30f,
      std::nextafter(1.0f, 2.0f), std::nextafter(-1.0f, -2.0f)};
  // Every s16 half-step k/65536 (and so every u8 one), and 1 ulp either
  // side of it, where ties-to-even and round-half-away differ.
  for (int k = -65536; k <= 65536; ++k) {
    const float x = static_cast<float>(k) / 65536.0f;
    in.push_back(x);
    in.push_back(std::nextafter(x, 2.0f));
    in.push_back(std::nextafter(x, -2.0f));
  }
  // s24's steps are not powers of two; cover them with random samples.
  Prng prng(61);
  for (int i = 0; i < 100000; ++i) {
    in.push_back(static_cast<float>(prng.NextDouble() * 2.2 - 1.1));
  }
  for (AudioEncoding enc :
       {AudioEncoding::kMulaw, AudioEncoding::kAlaw, AudioEncoding::kLinearU8,
        AudioEncoding::kLinearS16, AudioEncoding::kLinearS24}) {
    Bytes want;
    for (float x : in) {
      AppendWithLrint(x, enc, &want);
    }
    const Bytes got = EncodeFromFloat(in, enc);
    ASSERT_EQ(got.size(), want.size()) << AudioEncodingName(enc);
    if (got != want) {
      const auto byte = static_cast<size_t>(
          std::mismatch(got.begin(), got.end(), want.begin()).first -
          got.begin());
      const size_t i = byte / static_cast<size_t>(BytesPerSample(enc));
      FAIL() << AudioEncodingName(enc) << " sample " << i << " = " << in[i];
    }
  }
  // NaN is silence in every encoding.
  const std::vector<float> nans = {nan, -nan};
  EXPECT_EQ(EncodeFromFloat(nans, AudioEncoding::kLinearS16),
            (Bytes{0, 0, 0, 0}));
  EXPECT_EQ(EncodeFromFloat(nans, AudioEncoding::kLinearS24),
            (Bytes{0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(EncodeFromFloat(nans, AudioEncoding::kLinearU8),
            (Bytes{0x80, 0x80}));
  EXPECT_EQ(EncodeFromFloat(nans, AudioEncoding::kMulaw), (Bytes{0xff, 0xff}));
  EXPECT_EQ(EncodeFromFloat(nans, AudioEncoding::kAlaw), (Bytes{0xd5, 0xd5}));
  EXPECT_EQ(FloatToS16(nan), 0);
}

// ------------------------------------------------------------------- PCM --

TEST(PcmTest, GainIsLinear) {
  PcmBuffer buf;
  buf.samples = {0.5f, -0.25f};
  ApplyGain(&buf, 2.0f);
  EXPECT_FLOAT_EQ(buf.samples[0], 1.0f);
  EXPECT_FLOAT_EQ(buf.samples[1], -0.5f);
}

TEST(PcmTest, DbGainConversions) {
  EXPECT_NEAR(DbToGain(0.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(DbToGain(-6.0206f), 0.5f, 1e-4f);
  EXPECT_NEAR(GainToDb(2.0f), 6.0206f, 1e-3f);
}

TEST(PcmTest, MixRequiresMatchingLayout) {
  PcmBuffer a{{0.1f, 0.2f}, 1, 8000};
  PcmBuffer b{{0.3f, 0.4f}, 2, 8000};
  EXPECT_FALSE(MixInto(&a, b).ok());
}

TEST(PcmTest, MixAddsAndGrows) {
  PcmBuffer a{{0.1f, 0.2f}, 1, 8000};
  PcmBuffer b{{0.3f, 0.4f, 0.5f}, 1, 8000};
  ASSERT_TRUE(MixInto(&a, b).ok());
  ASSERT_EQ(a.samples.size(), 3u);
  EXPECT_FLOAT_EQ(a.samples[0], 0.4f);
  EXPECT_FLOAT_EQ(a.samples[2], 0.5f);
}

TEST(PcmTest, MonoToStereoDuplicates) {
  PcmBuffer in{{0.1f, 0.2f}, 1, 8000};
  PcmBuffer out = ConvertChannels(in, 2);
  ASSERT_EQ(out.samples.size(), 4u);
  EXPECT_FLOAT_EQ(out.samples[0], 0.1f);
  EXPECT_FLOAT_EQ(out.samples[1], 0.1f);
  EXPECT_FLOAT_EQ(out.samples[2], 0.2f);
  EXPECT_FLOAT_EQ(out.samples[3], 0.2f);
}

TEST(PcmTest, StereoToMonoAverages) {
  PcmBuffer in{{0.2f, 0.4f, -0.2f, -0.4f}, 2, 8000};
  PcmBuffer out = ConvertChannels(in, 1);
  ASSERT_EQ(out.samples.size(), 2u);
  EXPECT_FLOAT_EQ(out.samples[0], 0.3f);
  EXPECT_FLOAT_EQ(out.samples[1], -0.3f);
}

TEST(PcmTest, ResampleDoublesFrameCount) {
  PcmBuffer in;
  in.channels = 1;
  in.sample_rate = 8000;
  SineGenerator gen(440.0);
  gen.Generate(800, 1, 8000, &in.samples);
  PcmBuffer out = Resample(in, 16000);
  EXPECT_EQ(out.sample_rate, 16000);
  EXPECT_NEAR(static_cast<double>(out.frames()), 1600.0, 2.0);
}

TEST(PcmTest, ResamplePreservesToneFrequency) {
  // A 440 Hz tone resampled 8k->16k should still cross zero ~880 times/sec.
  PcmBuffer in;
  in.channels = 1;
  in.sample_rate = 8000;
  SineGenerator gen(440.0);
  gen.Generate(8000, 1, 8000, &in.samples);
  PcmBuffer out = Resample(in, 16000);
  int crossings = 0;
  for (size_t i = 1; i < out.samples.size(); ++i) {
    if ((out.samples[i - 1] < 0) != (out.samples[i] < 0)) {
      ++crossings;
    }
  }
  EXPECT_NEAR(crossings, 880, 4);
}

// ------------------------------------------------------------ Generators --

TEST(GeneratorTest, SineFrequencyViaZeroCrossings) {
  SineGenerator gen(1000.0, 0.5f);
  std::vector<float> samples;
  gen.Generate(44100, 1, 44100, &samples);
  int crossings = 0;
  for (size_t i = 1; i < samples.size(); ++i) {
    if ((samples[i - 1] < 0) != (samples[i] < 0)) {
      ++crossings;
    }
  }
  EXPECT_NEAR(crossings, 2000, 3);
  EXPECT_NEAR(Peak(samples), 0.5, 0.01);
}

TEST(GeneratorTest, SineIsContinuousAcrossCalls) {
  SineGenerator a(440.0);
  SineGenerator b(440.0);
  std::vector<float> whole;
  a.Generate(1000, 1, 44100, &whole);
  std::vector<float> parts;
  b.Generate(400, 1, 44100, &parts);
  b.Generate(600, 1, 44100, &parts);
  ASSERT_EQ(whole.size(), parts.size());
  for (size_t i = 0; i < whole.size(); ++i) {
    EXPECT_NEAR(whole[i], parts[i], 1e-5f);
  }
}

TEST(GeneratorTest, StereoChannelsCarrySameSignal) {
  SineGenerator gen(440.0);
  std::vector<float> samples;
  gen.Generate(100, 2, 44100, &samples);
  ASSERT_EQ(samples.size(), 200u);
  for (size_t f = 0; f < 100; ++f) {
    EXPECT_EQ(samples[2 * f], samples[2 * f + 1]);
  }
}

TEST(GeneratorTest, WhiteNoiseStatistics) {
  WhiteNoiseGenerator gen(7, 0.5f);
  std::vector<float> samples;
  gen.Generate(20000, 1, 44100, &samples);
  EXPECT_NEAR(Rms(samples), 0.5 / std::sqrt(3.0), 0.02);
  EXPECT_LE(Peak(samples), 0.5);
}

TEST(GeneratorTest, SilenceIsAllZero) {
  SilenceGenerator gen;
  std::vector<float> samples;
  gen.Generate(100, 2, 8000, &samples);
  EXPECT_EQ(samples.size(), 200u);
  EXPECT_EQ(Peak(samples), 0.0);
}

TEST(GeneratorTest, SpeechLikeHasPauses) {
  SpeechLikeGenerator gen(3);
  std::vector<float> samples;
  gen.Generate(8000 * 6, 1, 8000, &samples);
  // Count 100 ms windows that are essentially silent.
  int silent_windows = 0;
  const size_t window = 800;
  for (size_t start = 0; start + window <= samples.size(); start += window) {
    std::vector<float> chunk(samples.begin() + static_cast<long>(start),
                             samples.begin() + static_cast<long>(start + window));
    if (Rms(chunk) < 0.01) {
      ++silent_windows;
    }
  }
  EXPECT_GE(silent_windows, 5);  // ~0.6 s of pause per 3 s cycle.
}

TEST(GeneratorTest, GenerateBytesMatchesConfigSize) {
  MusicLikeGenerator gen(1);
  AudioConfig cd = AudioConfig::CdQuality();
  Bytes wire = gen.GenerateBytes(441, cd);
  EXPECT_EQ(wire.size(), 441u * 4u);
}

// -------------------------------------------------------------- Analysis --

TEST(AnalysisTest, RmsOfFullScaleSine) {
  SineGenerator gen(440.0, 1.0f);
  std::vector<float> samples;
  gen.Generate(44100, 1, 44100, &samples);
  EXPECT_NEAR(Rms(samples), 1.0 / std::sqrt(2.0), 0.001);
  EXPECT_NEAR(RmsDbfs(samples), 0.0, 0.05);
}

TEST(AnalysisTest, SnrIdenticalIsInfinite) {
  std::vector<float> a = {0.1f, 0.2f, -0.3f};
  EXPECT_TRUE(std::isinf(SnrDb(a, a)));
}

TEST(AnalysisTest, SnrKnownNoiseLevel) {
  SineGenerator gen(440.0, 0.5f);
  std::vector<float> clean;
  gen.Generate(44100, 1, 44100, &clean);
  std::vector<float> noisy = clean;
  Prng prng(11);
  for (float& s : noisy) {
    s += static_cast<float>(prng.NextGaussian()) * 0.005f;
  }
  double snr = SnrDb(clean, noisy);
  // Signal RMS 0.354, noise RMS 0.005 -> ~37 dB.
  EXPECT_NEAR(snr, 37.0, 1.0);
}

TEST(AnalysisTest, AlignmentFindsKnownLag) {
  SineGenerator gen(313.0, 0.5f);  // Non-harmonic of the window.
  std::vector<float> reference;
  gen.Generate(4000, 1, 8000, &reference);
  // test = reference delayed by 25 samples.
  std::vector<float> test(reference.size(), 0.0f);
  for (size_t i = 25; i < test.size(); ++i) {
    test[i] = reference[i - 25];
  }
  AlignmentResult result = FindAlignment(reference, test, 100);
  EXPECT_EQ(result.lag, 25);
  EXPECT_GT(result.correlation, 0.95);
}

TEST(AnalysisTest, AlignmentOfUncorrelatedNoiseIsWeak) {
  WhiteNoiseGenerator g1(1);
  WhiteNoiseGenerator g2(2);
  std::vector<float> a;
  std::vector<float> b;
  g1.Generate(4000, 1, 8000, &a);
  g2.Generate(4000, 1, 8000, &b);
  AlignmentResult result = FindAlignment(a, b, 50);
  EXPECT_LT(result.correlation, 0.2);
}

// ------------------------------------------------------------------- WAV --

TEST(WavTest, MemoryRoundTrip) {
  PcmBuffer pcm;
  pcm.channels = 2;
  pcm.sample_rate = 22050;
  MusicLikeGenerator gen(5);
  gen.Generate(2205, 2, 22050, &pcm.samples);
  Bytes wav = EncodeWav(pcm);
  Result<PcmBuffer> back = DecodeWav(wav);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->channels, 2);
  EXPECT_EQ(back->sample_rate, 22050);
  ASSERT_EQ(back->samples.size(), pcm.samples.size());
  EXPECT_GT(SnrDb(pcm.samples, back->samples), 80.0);  // 16-bit quantization.
}

TEST(WavTest, FileRoundTrip) {
  PcmBuffer pcm;
  pcm.channels = 1;
  pcm.sample_rate = 8000;
  SineGenerator gen(440.0);
  gen.Generate(800, 1, 8000, &pcm.samples);
  std::string path = ::testing::TempDir() + "/espk_wav_test.wav";
  ASSERT_TRUE(WriteWavFile(path, pcm).ok());
  Result<PcmBuffer> back = ReadWavFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->frames(), pcm.frames());
  std::remove(path.c_str());
}

TEST(WavTest, RejectsGarbage) {
  Bytes garbage = {'n', 'o', 't', 'a', 'w', 'a', 'v', '!'};
  EXPECT_FALSE(DecodeWav(garbage).ok());
}

TEST(WavTest, RejectsTruncatedData) {
  PcmBuffer pcm;
  pcm.channels = 1;
  pcm.sample_rate = 8000;
  pcm.samples.assign(100, 0.1f);
  Bytes wav = EncodeWav(pcm);
  wav.resize(wav.size() / 2);
  EXPECT_FALSE(DecodeWav(wav).ok());
}

}  // namespace
}  // namespace espk
