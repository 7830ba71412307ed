// Bit-granular I/O for the Vorbix codec's entropy-coded payload. Bits are
// packed MSB-first within each byte.
//
// Both sides move whole 64-bit words instead of single bits or bytes:
//   - BitWriter collects bits MSB-aligned in a 64-bit accumulator and
//     appends the accumulator to its buffer as 8 big-endian bytes each time
//     it fills; Flush() writes the partial word's used bytes, zero-padding
//     the last one. A write of any width in [0, 64] is a mask, a shift and
//     an OR until the accumulator fills.
//   - BitReader serves reads from a 64-bit window of unread bits,
//     MSB-aligned, refilled with whole bytes: one 8-byte load while at least
//     8 bytes of input remain, then byte by byte. Each refill is behind a
//     bounds check against `len`, so the reader never touches a byte past
//     the end of its input, which may be a zero-copy slice of a larger
//     buffer (the decoder reads packet payloads in place).
#ifndef SRC_DSP_BITSTREAM_H_
#define SRC_DSP_BITSTREAM_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"

namespace espk {

class BitWriter {
 public:
  // Writes the low `bits` bits of `value`, MSB first. bits in [0, 64].
  void WriteBits(uint64_t value, int bits) {
    assert(bits >= 0 && bits <= 64);
    if (bits == 0) {
      return;
    }
    value &= ~uint64_t{0} >> (64 - bits);
    if (bits < free_) {
      free_ -= bits;
      acc_ |= value << free_;
      return;
    }
    // The accumulator fills: complete it with the top bits of `value`,
    // then start the next word with the rest.
    bits -= free_;
    AppendWord(acc_ | (value >> bits));
    free_ = 64 - bits;
    acc_ = bits == 0 ? 0 : value << free_;
  }
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  // Writes `count` one-bits followed by a zero (unary code).
  void WriteUnary(uint32_t count);

  // Pads the final partial byte with zeros and returns the buffer by move.
  Bytes Finish();

  // Pads the final partial byte with zeros and returns a view of the buffer
  // without giving up ownership — pair with Clear() to reuse the writer's
  // capacity across packets (zero-allocation steady state). Idempotent.
  const Bytes& Flush();

  // Resets to empty, keeping the allocated capacity.
  void Clear();

 private:
  void AppendWord(uint64_t word);

  Bytes buf_;
  uint64_t acc_ = 0;  // Pending bits, MSB-aligned.
  int free_ = 64;     // Unused low bits of acc_, in [1, 64].
};

class BitReader {
 public:
  // The data must outlive the reader; no copy is made.
  BitReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit BitReader(const Bytes& data)
      : BitReader(data.data(), data.size()) {}

  // Reads `bits` bits MSB-first, bits in [0, 64]. Fails with OUT_OF_RANGE,
  // consuming nothing, when fewer than `bits` bits remain.
  Result<uint64_t> ReadBits(int bits) {
    assert(bits >= 0 && bits <= 64);
    if (bits > avail_) {
      return ReadBitsSlow(bits);
    }
    return Take(bits);
  }
  Result<bool> ReadBit() {
    Result<uint64_t> bit = ReadBits(1);
    if (!bit.ok()) {
      return bit.status();
    }
    return *bit != 0;
  }

  // Reads ones until a zero; returns the count of ones. Bounded by
  // `max_run` to stop adversarial input from spinning (DoS hardening, §5.1):
  // a run longer than `max_run` fails with DATA_LOSS, a run cut off by the
  // end of the data with OUT_OF_RANGE.
  Result<uint32_t> ReadUnary(uint32_t max_run = 1 << 20) {
    // The window's low bits are zero, so the run of ones stops at avail_;
    // a shorter run ends at a terminating zero inside the window.
    const int ones = std::countl_one(window_);
    if (ones < avail_ && static_cast<uint32_t>(ones) <= max_run) {
      window_ = window_ << ones << 1;  // Also consume the terminating zero.
      avail_ -= ones + 1;
      return static_cast<uint32_t>(ones);
    }
    return ReadUnarySlow(max_run);
  }

 private:
  // Tops the window up to at least 57 bits, or to the end of the data.
  void Refill();
  Result<uint64_t> ReadBitsSlow(int bits);
  Result<uint32_t> ReadUnarySlow(uint32_t max_run);

  // Consumes the top `bits` (<= avail_) bits of the window.
  uint64_t Take(int bits) {
    if (bits == 0) {
      return 0;
    }
    const uint64_t value = window_ >> (64 - bits);
    window_ = bits == 64 ? 0 : window_ << bits;
    avail_ -= bits;
    return value;
  }

  const uint8_t* data_;
  size_t len_;
  size_t next_ = 0;      // Next byte of data_ to load into the window.
  uint64_t window_ = 0;  // Unread bits, MSB-aligned; the low bits are zero.
  int avail_ = 0;        // Valid bits in window_, in [0, 64].
};

}  // namespace espk

#endif  // SRC_DSP_BITSTREAM_H_
