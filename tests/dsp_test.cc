#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <numbers>
#include <utility>
#include <vector>

#include "src/audio/generator.h"
#include "src/base/prng.h"
#include "src/dsp/bitstream.h"
#include "src/dsp/fft.h"
#include "src/dsp/mdct.h"
#include "src/dsp/psymodel.h"
#include "src/dsp/rice.h"

namespace espk {
namespace {

// ------------------------------------------------------------------- FFT --

std::vector<std::complex<double>> NaiveDft(
    const std::vector<std::complex<double>>& x) {
  const size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (size_t k = 0; k < n; ++k) {
    std::complex<double> acc = 0.0;
    for (size_t j = 0; j < n; ++j) {
      double angle = -2.0 * std::numbers::pi * static_cast<double>(j * k) /
                     static_cast<double>(n);
      acc += x[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(FftTest, MatchesNaiveDftOnRandomInput) {
  Prng prng(13);
  std::vector<std::complex<double>> x(64);
  for (auto& c : x) {
    c = {prng.NextDouble() - 0.5, prng.NextDouble() - 0.5};
  }
  auto expected = NaiveDft(x);
  auto actual = x;
  Fft(&actual);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(actual[i].real(), expected[i].real(), 1e-9);
    EXPECT_NEAR(actual[i].imag(), expected[i].imag(), 1e-9);
  }
}

TEST(FftTest, InverseRecoversInput) {
  Prng prng(29);
  std::vector<std::complex<double>> x(256);
  for (auto& c : x) {
    c = {prng.NextGaussian(), prng.NextGaussian()};
  }
  auto work = x;
  Fft(&work);
  Ifft(&work);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(work[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(work[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(FftTest, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> x(32, 0.0);
  x[0] = 1.0;
  Fft(&x);
  for (const auto& c : x) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, ParsevalHolds) {
  Prng prng(31);
  std::vector<std::complex<double>> x(128);
  double time_energy = 0.0;
  for (auto& c : x) {
    c = {prng.NextGaussian(), 0.0};
    time_energy += std::norm(c);
  }
  Fft(&x);
  double freq_energy = 0.0;
  for (const auto& c : x) {
    freq_energy += std::norm(c);
  }
  EXPECT_NEAR(freq_energy / 128.0, time_energy, 1e-8);
}

TEST(FftTest, IsPowerOfTwoHelper) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
}

TEST(FftTest, PlanMatchesFreeFunctionAndRoundTrips) {
  for (size_t n : {8u, 64u, 1024u}) {
    FftPlan plan(n);
    Prng prng(n);
    std::vector<std::complex<double>> x(n);
    for (auto& c : x) {
      c = {prng.NextGaussian(), prng.NextGaussian()};
    }
    // The free function is a one-shot plan, so results are bit-identical.
    auto via_free = x;
    Fft(&via_free);
    auto via_plan = x;
    plan.Forward(via_plan.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(via_plan[i], via_free[i]) << "n=" << n << " bin " << i;
    }
    // Reusing the same plan for the inverse recovers the input.
    plan.Inverse(via_plan.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(via_plan[i].real(), x[i].real(), 1e-9);
      EXPECT_NEAR(via_plan[i].imag(), x[i].imag(), 1e-9);
    }
  }
}

// ------------------------------------------------------------------ MDCT --

TEST(MdctTest, SineWindowSatisfiesPrincenBradley) {
  auto w = SineWindow(256);
  for (size_t n = 0; n < 128; ++n) {
    EXPECT_NEAR(w[n] * w[n] + w[n + 128] * w[n + 128], 1.0, 1e-12);
  }
}

TEST(MdctTest, FastForwardMatchesDirect) {
  const size_t m = 64;
  Mdct mdct(m);
  Prng prng(17);
  std::vector<double> x(2 * m);
  for (auto& v : x) {
    v = prng.NextGaussian();
  }
  auto fast = mdct.Forward(x);
  auto direct = MdctForwardDirect(x, SineWindow(2 * m));
  ASSERT_EQ(fast.size(), m);
  for (size_t k = 0; k < m; ++k) {
    EXPECT_NEAR(fast[k], direct[k], 1e-9) << "bin " << k;
  }
}

TEST(MdctTest, FastInverseMatchesDirect) {
  const size_t m = 64;
  Mdct mdct(m);
  Prng prng(19);
  std::vector<double> coeffs(m);
  for (auto& v : coeffs) {
    v = prng.NextGaussian();
  }
  auto fast = mdct.Inverse(coeffs);
  auto direct = MdctInverseDirect(coeffs, SineWindow(2 * m));
  ASSERT_EQ(fast.size(), 2 * m);
  for (size_t n = 0; n < 2 * m; ++n) {
    EXPECT_NEAR(fast[n], direct[n], 1e-9) << "sample " << n;
  }
}

// Property sweep: TDAC perfect reconstruction at several block sizes.
class MdctTdac : public ::testing::TestWithParam<size_t> {};

TEST_P(MdctTdac, OverlapAddReconstructsExactly) {
  const size_t m = GetParam();
  Mdct mdct(m);
  Prng prng(23);
  const size_t blocks = 6;
  std::vector<double> signal(m * (blocks + 1));
  for (auto& v : signal) {
    v = prng.NextGaussian();
  }
  std::vector<double> recon(signal.size(), 0.0);
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<double> slice(signal.begin() + static_cast<long>(b * m),
                              signal.begin() + static_cast<long>(b * m + 2 * m));
    auto coeffs = mdct.Forward(slice);
    auto out = mdct.Inverse(coeffs);
    for (size_t n = 0; n < 2 * m; ++n) {
      recon[b * m + n] += out[n];
    }
  }
  // The interior region [m, blocks*m) is fully overlapped and must match.
  for (size_t n = m; n < blocks * m; ++n) {
    EXPECT_NEAR(recon[n], signal[n], 1e-9) << "sample " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, MdctTdac,
                         ::testing::Values(16, 64, 256, 512));

// Oracle sweep: the plan-based fast path (fold + DCT-IV over one
// half-length FFT) must agree with the direct O(N^2) formulas at
// every power-of-two size the codec could be configured with.
class MdctPlanOracle : public ::testing::TestWithParam<size_t> {};

TEST_P(MdctPlanOracle, ForwardAndInverseMatchDirectFormulas) {
  const size_t m = GetParam();
  Mdct mdct(m);
  Prng prng(m);
  const auto window = SineWindow(2 * m);

  std::vector<double> x(2 * m);
  for (auto& v : x) {
    v = prng.NextGaussian();
  }
  auto fast_fwd = mdct.Forward(x);
  auto direct_fwd = MdctForwardDirect(x, window);
  ASSERT_EQ(fast_fwd.size(), m);
  for (size_t k = 0; k < m; ++k) {
    ASSERT_NEAR(fast_fwd[k], direct_fwd[k], 1e-9) << "m=" << m << " bin " << k;
  }

  std::vector<double> coeffs(m);
  for (auto& v : coeffs) {
    v = prng.NextGaussian();
  }
  auto fast_inv = mdct.Inverse(coeffs);
  auto direct_inv = MdctInverseDirect(coeffs, window);
  ASSERT_EQ(fast_inv.size(), 2 * m);
  for (size_t n = 0; n < 2 * m; ++n) {
    ASSERT_NEAR(fast_inv[n], direct_inv[n], 1e-9)
        << "m=" << m << " sample " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, MdctPlanOracle,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 512, 1024,
                                           2048, 4096));

// -------------------------------------------------------------- Bitstream --

TEST(BitstreamTest, BitsRoundTrip) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBits(0xFFFF, 16);
  w.WriteBits(0, 1);
  w.WriteBits(0x123456789ABCDEFull, 60);
  Bytes buf = w.Finish();

  BitReader r(buf);
  EXPECT_EQ(*r.ReadBits(3), 0b101u);
  EXPECT_EQ(*r.ReadBits(16), 0xFFFFu);
  EXPECT_EQ(*r.ReadBits(1), 0u);
  EXPECT_EQ(*r.ReadBits(60), 0x123456789ABCDEFull);
}

TEST(BitstreamTest, UnaryRoundTrip) {
  BitWriter w;
  for (uint32_t v : {0u, 1u, 5u, 31u}) {
    w.WriteUnary(v);
  }
  Bytes buf = w.Finish();
  BitReader r(buf);
  for (uint32_t v : {0u, 1u, 5u, 31u}) {
    EXPECT_EQ(*r.ReadUnary(), v);
  }
}

TEST(BitstreamTest, ReadPastEndFails) {
  BitWriter w;
  w.WriteBits(0xA, 4);
  Bytes buf = w.Finish();  // One byte after padding.
  BitReader r(buf);
  EXPECT_TRUE(r.ReadBits(8).ok());
  EXPECT_FALSE(r.ReadBits(8).ok());
}

TEST(BitstreamTest, UnaryRunLimitStopsCorruptInput) {
  Bytes all_ones(1024, 0xFF);
  BitReader r(all_ones);
  EXPECT_FALSE(r.ReadUnary(100).ok());
}

TEST(BitstreamTest, ZeroBitWriteIsNoOp) {
  BitWriter w;
  w.WriteBits(0xFF, 0);
  w.WriteBits(1, 1);
  Bytes buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(*r.ReadBits(1), 1u);
}

// Bit `i` of `data`, MSB-first within each byte.
bool BitAt(const uint8_t* data, size_t i) {
  return ((data[i / 8] >> (7 - i % 8)) & 1) != 0;
}

TEST(BitstreamTest, RandomFieldsAndUnaryRunsRoundTrip) {
  // Fields of every width 0..64 (with junk above the written bits) mixed
  // with unary runs of 0..100 ones, so writes cross the 32-bit unary chunk
  // and the writer's 64-bit word at every offset, and reads refill the
  // window 8 bytes at a time and, near the end, byte by byte.
  Prng prng(53);
  struct Field {
    bool unary;
    int bits;
    uint64_t value;
  };
  std::vector<Field> fields;
  BitWriter w;
  for (int i = 0; i < 20000; ++i) {
    Field f{prng.NextBelow(3) == 0, 0, 0};
    if (f.unary) {
      f.value = prng.NextBelow(101);
      w.WriteUnary(static_cast<uint32_t>(f.value));
    } else {
      f.bits = static_cast<int>(prng.NextBelow(65));
      const uint64_t raw = prng.NextU64();
      w.WriteBits(raw, f.bits);
      f.value = f.bits == 64 ? raw : raw & ((uint64_t{1} << f.bits) - 1);
    }
    fields.push_back(f);
  }
  const Bytes buf = w.Finish();
  auto exact = std::make_unique<uint8_t[]>(buf.size());
  std::copy(buf.begin(), buf.end(), exact.get());
  BitReader r(exact.get(), buf.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const Field& f = fields[i];
    if (f.unary) {
      Result<uint32_t> got = r.ReadUnary();
      ASSERT_TRUE(got.ok()) << "field " << i;
      ASSERT_EQ(*got, f.value) << "field " << i;
    } else {
      Result<uint64_t> got = r.ReadBits(f.bits);
      ASSERT_TRUE(got.ok()) << "field " << i;
      ASSERT_EQ(*got, f.value) << "field " << i << " bits " << f.bits;
    }
  }
  // Only the final byte's zero padding is left.
  int padding = 0;
  for (Result<uint64_t> bit = r.ReadBits(1); bit.ok(); bit = r.ReadBits(1)) {
    EXPECT_EQ(*bit, 0u);
    ++padding;
  }
  EXPECT_LT(padding, 8);
}

TEST(BitstreamTest, ReadsEndExactlyAtTheLastBitAndFailOneBitPast) {
  Prng prng(59);
  for (size_t len : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 64u}) {
    // Sized exactly, so a read past the end is outside the allocation.
    auto data = std::make_unique<uint8_t[]>(len);
    for (size_t i = 0; i < len; ++i) {
      data[i] = static_cast<uint8_t>(prng.NextU64());
    }
    const size_t total = len * 8;
    // Random-width reads that together end exactly at the last bit.
    BitReader r(data.get(), len);
    size_t pos = 0;
    while (pos < total) {
      const int bits = static_cast<int>(
          std::min<uint64_t>(prng.NextBelow(64) + 1, total - pos));
      Result<uint64_t> got = r.ReadBits(bits);
      ASSERT_TRUE(got.ok()) << "len " << len << " pos " << pos;
      uint64_t want = 0;
      for (int b = 0; b < bits; ++b) {
        want = (want << 1) | (BitAt(data.get(), pos + b) ? 1 : 0);
      }
      ASSERT_EQ(*got, want) << "len " << len << " pos " << pos;
      pos += static_cast<size_t>(bits);
    }
    EXPECT_TRUE(r.ReadBits(0).ok());
    EXPECT_EQ(r.ReadBits(1).status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(r.ReadBit().status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(r.ReadUnary().status().code(), StatusCode::kOutOfRange);

    // A read one bit wider than what is left fails and consumes nothing.
    if (total < 64) {
      BitReader whole(data.get(), len);
      ASSERT_EQ(whole.ReadBits(static_cast<int>(total) + 1).status().code(),
                StatusCode::kOutOfRange);
      EXPECT_TRUE(whole.ReadBits(static_cast<int>(total)).ok());
    }
  }
}

TEST(BitstreamTest, UnaryRunStopsAtTheEndOfASlice) {
  // The reader sees only its slice: ones up to the slice end are a run cut
  // off by the end (OUT_OF_RANGE), not ended by the zeros stored after it.
  const Bytes buf = {0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x00, 0x00, 0x00, 0x00};
  BitReader ones(buf.data(), 3);
  EXPECT_EQ(ones.ReadUnary().status().code(), StatusCode::kOutOfRange);
  BitReader limited(buf.data(), 3);
  EXPECT_EQ(limited.ReadUnary(23).status().code(), StatusCode::kDataLoss);
  // A zero in the last bit of the slice ends the run there.
  const Bytes last_zero = {0xFF, 0xFF, 0xFE, 0xFF};
  BitReader r(last_zero.data(), 3);
  EXPECT_EQ(*r.ReadUnary(), 23u);
  EXPECT_EQ(r.ReadBits(1).status().code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------------ Rice --

TEST(RiceTest, ZigzagBijection) {
  for (int64_t v : {0ll, 1ll, -1ll, 2ll, -2ll, 1000000ll, -1000000ll}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

class RiceRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RiceRoundTrip, ValuesSurvive) {
  const int k = GetParam();
  BitWriter w;
  std::vector<int64_t> values = {0, 1, -1, 100, -100, 12345, -54321};
  for (int64_t v : values) {
    RiceEncode(&w, v, k);
  }
  Bytes buf = w.Finish();
  BitReader r(buf);
  for (int64_t v : values) {
    Result<int64_t> got = RiceDecode(&r, k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, RiceRoundTrip, ::testing::Values(0, 1, 4, 8, 15));

TEST(RiceTest, RandomCodesRoundTrip) {
  // Every order the estimator picks (0..30) with unary runs of 0..100, past
  // the writer's 32-bit unary chunk, decoded through the reader's window.
  Prng prng(67);
  BitWriter w;
  std::vector<std::pair<int64_t, int>> codes;
  for (int i = 0; i < 20000; ++i) {
    const int k = static_cast<int>(prng.NextBelow(31));
    const uint64_t quotient = prng.NextBelow(101);
    const uint64_t remainder = prng.NextU64() & ((uint64_t{1} << k) - 1);
    const int64_t value = ZigzagDecode((quotient << k) | remainder);
    RiceEncode(&w, value, k);
    codes.emplace_back(value, k);
  }
  const Bytes buf = w.Finish();
  BitReader r(buf);
  for (const auto& [value, k] : codes) {
    Result<int64_t> got = RiceDecode(&r, k);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, value) << "k " << k;
  }
}

TEST(RiceTest, BlockRoundTripRandom) {
  Prng prng(37);
  std::vector<int32_t> values(500);
  for (auto& v : values) {
    v = static_cast<int32_t>(prng.NextInRange(-2000, 2000));
  }
  BitWriter w;
  RiceEncodeBlock(&w, values);
  Bytes buf = w.Finish();
  BitReader r(buf);
  Result<std::vector<int32_t>> got = RiceDecodeBlock(&r, values.size());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, values);
}

TEST(RiceTest, AllZerosCompressTo1BitEach) {
  std::vector<int32_t> zeros(1000, 0);
  BitWriter w;
  RiceEncodeBlock(&w, zeros);
  Bytes buf = w.Finish();
  // k=0 header (5 bits) + 1000 unary zeros = ~126 bytes.
  EXPECT_LE(buf.size(), 130u);
}

TEST(RiceTest, ParameterEstimatorTracksMagnitude) {
  std::vector<int32_t> small(100, 1);
  std::vector<int32_t> large(100, 10000);
  EXPECT_LT(EstimateRiceParameter(small), EstimateRiceParameter(large));
}

TEST(RiceTest, TruncatedBlockFails) {
  std::vector<int32_t> values(100, 777);
  BitWriter w;
  RiceEncodeBlock(&w, values);
  Bytes buf = w.Finish();
  buf.resize(buf.size() / 2);
  BitReader r(buf);
  EXPECT_FALSE(RiceDecodeBlock(&r, values.size()).ok());
}

// -------------------------------------------------------------- Psymodel --

TEST(PsymodelTest, BarkScaleIsMonotone) {
  double prev = HzToBark(20.0);
  for (double hz = 40.0; hz < 22050.0; hz *= 1.3) {
    double bark = HzToBark(hz);
    EXPECT_GT(bark, prev);
    prev = bark;
  }
  EXPECT_NEAR(HzToBark(1000.0), 8.5, 0.6);  // ~8.5 Bark at 1 kHz.
}

TEST(PsymodelTest, BandLayoutCoversAllBins) {
  BandLayout layout = MakeBandLayout(44100, 512);
  EXPECT_EQ(layout.band_begin.front(), 0u);
  EXPECT_EQ(layout.band_begin.back(), 512u);
  for (size_t b = 0; b + 1 < layout.band_begin.size(); ++b) {
    EXPECT_LT(layout.band_begin[b], layout.band_begin[b + 1]);
  }
  // Roughly the number of critical bands below 22 kHz.
  EXPECT_GE(layout.num_bands(), 18u);
  EXPECT_LE(layout.num_bands(), 28u);
}

TEST(PsymodelTest, HigherQualityMeansFinerSteps) {
  Prng prng(41);
  std::vector<double> coeffs(512);
  for (auto& c : coeffs) {
    c = prng.NextGaussian() * 0.1;
  }
  BandLayout layout = MakeBandLayout(44100, 512);
  auto steps_low = ComputeQuantSteps(coeffs, layout, 44100, 0);
  auto steps_high = ComputeQuantSteps(coeffs, layout, 44100, 10);
  ASSERT_EQ(steps_low.size(), layout.num_bands());
  for (size_t b = 0; b < steps_low.size(); ++b) {
    EXPECT_GT(steps_low[b], 0.0);
    EXPECT_GT(steps_high[b], 0.0);
    // Quality never makes steps coarser anywhere...
    EXPECT_LE(steps_high[b], steps_low[b]) << "band " << b;
    // ...and strictly refines them where masking (not the quality-
    // independent absolute threshold of hearing) is the binding limit,
    // i.e. below ~10 kHz for this content.
    size_t mid_bin = (layout.band_begin[b] + layout.band_begin[b + 1]) / 2;
    double center_hz = static_cast<double>(mid_bin) * 22050.0 / 512.0;
    if (center_hz < 10000.0) {
      EXPECT_LT(steps_high[b], steps_low[b]) << "band " << b;
    }
  }
}

TEST(PsymodelTest, LoudBandGetsCoarserStepThanQuietBand) {
  BandLayout layout = MakeBandLayout(44100, 512);
  std::vector<double> coeffs(512, 1e-6);
  // Make band 5 loud.
  for (size_t i = layout.band_begin[5]; i < layout.band_begin[6]; ++i) {
    coeffs[i] = 0.5;
  }
  auto steps = ComputeQuantSteps(coeffs, layout, 44100, 8);
  EXPECT_GT(steps[5], steps[12] * 10.0);
}

TEST(PsymodelTest, SilenceHitsAbsoluteThresholdFloor) {
  BandLayout layout = MakeBandLayout(44100, 512);
  std::vector<double> silence(512, 0.0);
  auto steps = ComputeQuantSteps(silence, layout, 44100, 10);
  for (double s : steps) {
    EXPECT_GT(s, 0.0);  // Absolute threshold keeps steps finite and nonzero.
  }
}

}  // namespace
}  // namespace espk
