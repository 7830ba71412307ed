#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "src/base/bytes.h"
#include "src/base/crc32.h"
#include "src/base/logging.h"
#include "src/base/prng.h"
#include "src/base/rate.h"
#include "src/base/ring_buffer.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/time_types.h"

namespace espk {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad rate");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad rate");
}

TEST(StatusTest, AllErrorConstructorsProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(PermissionDeniedError("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Status FailsIfNegative(int x) {
  if (x < 0) {
    return InvalidArgumentError("negative");
  }
  return OkStatus();
}

Status UsesReturnIfError(int x) {
  ESPK_RETURN_IF_ERROR(FailsIfNegative(x));
  return OkStatus();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_FALSE(UsesReturnIfError(-1).ok());
}

// ----------------------------------------------------------------- Bytes --

TEST(BytesTest, IntegerRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI64(-42);
  w.WriteF64(3.14159);
  Bytes buf = w.TakeBytes();

  ByteReader r(buf);
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 3.14159);
  EXPECT_TRUE(r.empty());
}

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter w;
  w.WriteU32(0x01020304);
  Bytes buf = w.TakeBytes();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(BytesTest, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.WriteString("ethernet speaker");
  w.WriteLengthPrefixed({1, 2, 3});
  Bytes buf = w.TakeBytes();

  ByteReader r(buf);
  EXPECT_EQ(*r.ReadString(), "ethernet speaker");
  Bytes blob = *r.ReadLengthPrefixed();
  EXPECT_EQ(blob, Bytes({1, 2, 3}));
}

TEST(BytesTest, ReadPastEndFails) {
  ByteWriter w;
  w.WriteU16(7);
  Bytes buf = w.TakeBytes();
  ByteReader r(buf);
  EXPECT_TRUE(r.ReadU32().status().code() == StatusCode::kOutOfRange);
  // Cursor is unchanged after a failed read; a U16 still works.
  EXPECT_EQ(*r.ReadU16(), 7);
}

TEST(BytesTest, TruncatedLengthPrefixFails) {
  ByteWriter w;
  w.WriteU32(100);  // Claims 100 bytes follow; none do.
  Bytes buf = w.TakeBytes();
  ByteReader r(buf);
  EXPECT_FALSE(r.ReadLengthPrefixed().ok());
}

// ----------------------------------------------------------------- CRC32 --

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 is the standard check value.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Bytes data(1000);
  std::iota(data.begin(), data.end(), 0);
  uint32_t state = Crc32Init();
  state = Crc32Update(state, data.data(), 300);
  state = Crc32Update(state, data.data() + 300, 700);
  EXPECT_EQ(Crc32Final(state), Crc32(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  Bytes data(64, 0x5A);
  uint32_t clean = Crc32(data);
  data[17] ^= 0x01;
  EXPECT_NE(Crc32(data), clean);
}

// Independent bit-at-a-time reference for the reflected IEEE polynomial.
// The production implementation is table-driven (slicing-by-8) and must be
// bit-identical to this for any span and any split point.
uint32_t Crc32BitwiseUpdate(uint32_t state, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    state ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return state;
}

TEST(Crc32Test, SlicedMatchesBitwiseReferenceOnRandomSpans) {
  Prng prng(91);
  Bytes data(4096);
  for (auto& b : data) {
    b = static_cast<uint8_t>(prng.NextInRange(0, 255));
  }
  for (int trial = 0; trial < 200; ++trial) {
    // Random offset and length so the 8-byte slicing loop is exercised with
    // every head/tail misalignment, including spans shorter than one chunk.
    const auto off = static_cast<size_t>(prng.NextInRange(0, 4095));
    const auto len =
        static_cast<size_t>(prng.NextInRange(0, 4096 - static_cast<int64_t>(off)));
    const uint32_t expected =
        Crc32Final(Crc32BitwiseUpdate(Crc32Init(), data.data() + off, len));
    ASSERT_EQ(Crc32(data.data() + off, len), expected)
        << "off=" << off << " len=" << len;
    // And split incrementally at an arbitrary point.
    const auto cut = static_cast<size_t>(prng.NextInRange(0, static_cast<int64_t>(len)));
    uint32_t state = Crc32Init();
    state = Crc32Update(state, data.data() + off, cut);
    state = Crc32Update(state, data.data() + off + cut, len - cut);
    ASSERT_EQ(Crc32Final(state), expected)
        << "off=" << off << " len=" << len << " cut=" << cut;
  }
}

// ------------------------------------------------------------ RingBuffer --

TEST(RingBufferTest, BasicWriteRead) {
  RingBuffer rb(16);
  Bytes in = {1, 2, 3, 4, 5};
  EXPECT_EQ(rb.Write(in), 5u);
  EXPECT_EQ(rb.size(), 5u);
  Bytes out = rb.ReadUpTo(5);
  EXPECT_EQ(out, in);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, ShortWriteWhenFull) {
  RingBuffer rb(4);
  Bytes in = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(rb.Write(in), 4u);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.Write(in), 0u);
}

TEST(RingBufferTest, WrapAround) {
  RingBuffer rb(8);
  Bytes a = {1, 2, 3, 4, 5, 6};
  rb.Write(a);
  rb.ReadUpTo(4);  // head moves to 4
  Bytes b = {7, 8, 9, 10, 11};
  EXPECT_EQ(rb.Write(b), 5u);  // wraps
  Bytes out = rb.ReadUpTo(7);
  EXPECT_EQ(out, Bytes({5, 6, 7, 8, 9, 10, 11}));
}

TEST(RingBufferTest, PeekDoesNotConsume) {
  RingBuffer rb(8);
  rb.Write(Bytes{9, 8, 7});
  uint8_t tmp[3];
  EXPECT_EQ(rb.Peek(tmp, 3), 3u);
  EXPECT_EQ(tmp[0], 9);
  EXPECT_EQ(rb.size(), 3u);
}

TEST(RingBufferTest, DropDiscards) {
  RingBuffer rb(8);
  rb.Write(Bytes{1, 2, 3, 4});
  EXPECT_EQ(rb.Drop(2), 2u);
  EXPECT_EQ(rb.ReadUpTo(8), Bytes({3, 4}));
  EXPECT_EQ(rb.Drop(5), 0u);
}

TEST(RingBufferTest, CountersTrackLifetimeBytes) {
  RingBuffer rb(4);
  rb.Write(Bytes{1, 2, 3, 4});
  rb.ReadUpTo(2);
  rb.Write(Bytes{5, 6});
  rb.ReadUpTo(10);
  EXPECT_EQ(rb.total_written(), 6u);
  EXPECT_EQ(rb.total_read(), 6u);
}

TEST(RingBufferTest, SetCapacityPreservesNewestData) {
  RingBuffer rb(8);
  rb.Write(Bytes{1, 2, 3, 4, 5, 6});
  rb.SetCapacity(4);
  EXPECT_EQ(rb.capacity(), 4u);
  EXPECT_EQ(rb.ReadUpTo(4), Bytes({3, 4, 5, 6}));
}

TEST(RingBufferTest, SetCapacityGrow) {
  RingBuffer rb(4);
  rb.Write(Bytes{1, 2, 3});
  rb.SetCapacity(16);
  EXPECT_EQ(rb.ReadUpTo(16), Bytes({1, 2, 3}));
  EXPECT_EQ(rb.capacity(), 16u);
}

// ------------------------------------------------------------------ Prng --

TEST(PrngTest, DeterministicForSameSeed) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Prng p(7);
  for (int i = 0; i < 1000; ++i) {
    double d = p.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, NextBelowRespectsBound) {
  Prng p(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(p.NextBelow(13), 13u);
  }
}

TEST(PrngTest, NextInRangeInclusive) {
  Prng p(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = p.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(PrngTest, GaussianMomentsRoughlyStandard) {
  Prng p(99);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(p.NextGaussian());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(PrngTest, NextBoolProbability) {
  Prng p(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += p.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

// ----------------------------------------------------------------- Stats --

TEST(RunningStatsTest, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(HistogramTest, PercentilesOfUniformData) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.Add(i + 0.5);
  }
  EXPECT_NEAR(h.Percentile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.Percentile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.Percentile(0.99), 99.0, 1.5);
}

TEST(HistogramTest, OutOfRangeCounted) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-5.0);
  h.Add(15.0);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
}

TEST(HistogramTest, ExtremeQuantiles) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 50; ++i) {
    h.Add(42.0);  // All samples land in bucket [40, 50).
  }
  // q=0 reports the low edge of the range; q=1 the upper edge of the
  // highest populated bucket.
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(1.0), 50.0);
}

TEST(HistogramTest, ExtremeQuantilesWithOverflow) {
  Histogram h(0.0, 100.0, 10);
  h.Add(-1.0);
  h.Add(1000.0);
  // Underflow pins q=0 at lo; overflow means the top quantile can only be
  // bounded by hi.
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(1.0), 100.0);
}

TEST(HistogramTest, EmptyPercentileIsLo) {
  Histogram h(-5.0, 5.0, 10);
  EXPECT_EQ(h.Percentile(0.0), -5.0);
  EXPECT_EQ(h.Percentile(0.5), -5.0);
  EXPECT_EQ(h.Percentile(1.0), -5.0);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-1.0);
  h.Add(5.0);
  h.Add(99.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.underflow(), 0);
  EXPECT_EQ(h.overflow(), 0);
  for (int i = 0; i < h.bucket_count(); ++i) {
    EXPECT_EQ(h.bucket(i), 0);
  }
  // Range survives a reset.
  EXPECT_EQ(h.lo(), 0.0);
  EXPECT_EQ(h.hi(), 10.0);
}

// ---------------------------------------------------------------- Logging --

TEST(LoggingTest, ScopedCaptureRecordsAndRestores) {
  {
    ScopedLogCapture capture;
    ESPK_LOG(kWarning) << "first " << 42;
    ESPK_LOG(kError) << "second";
    ASSERT_EQ(capture.count(), 2u);
    EXPECT_EQ(capture.entries()[0].level, LogLevel::kWarning);
    EXPECT_EQ(capture.entries()[0].message, "first 42");
    EXPECT_TRUE(capture.Contains("second"));
    EXPECT_FALSE(capture.Contains("third"));
  }
  // Sink restored: a fresh capture starts empty and the old one is gone.
  ScopedLogCapture after;
  ESPK_LOG(kError) << "third";
  EXPECT_EQ(after.count(), 1u);
}

TEST(LoggingTest, CaptureHonorsThreshold) {
  ScopedLogCapture capture(LogLevel::kWarning);
  ESPK_LOG(kDebug) << "too quiet";
  ESPK_LOG(kInfo) << "still too quiet";
  ESPK_LOG(kWarning) << "loud enough";
  ASSERT_EQ(capture.count(), 1u);
  EXPECT_EQ(capture.entries()[0].message, "loud enough");
}

TEST(LoggingTest, CaptureLowersThresholdByDefault) {
  LogLevel before = GetLogThreshold();
  {
    ScopedLogCapture capture;  // Defaults to kDebug.
    ESPK_LOG(kDebug) << "visible";
    EXPECT_EQ(capture.count(), 1u);
  }
  EXPECT_EQ(GetLogThreshold(), before);
}

// -------------------------------------------------------------- RateMeter --

TEST(RateMeterTest, ComputesAverageBps) {
  RateMeter m;
  m.Record(0, 1000);
  m.Record(Seconds(1), 1000);
  // 2000 bytes over 1 second = 16000 bps.
  EXPECT_NEAR(m.average_bps(), 16000.0, 1.0);
  EXPECT_EQ(m.total_bytes(), 2000u);
}

// ------------------------------------------------------------ Time types --

TEST(TimeTypesTest, FrameDurationConversions) {
  // 44100 frames at 44.1 kHz is exactly one second.
  EXPECT_EQ(FramesToDuration(44100, 44100), kSecond);
  EXPECT_EQ(DurationToFrames(kSecond, 44100), 44100);
  // Rounding: 1 frame at 44.1 kHz is ~22676 ns.
  EXPECT_NEAR(static_cast<double>(FramesToDuration(1, 44100)), 22675.7, 1.0);
}

}  // namespace
}  // namespace espk
