#include "src/dsp/bitstream.h"

#include <bit>

namespace espk {

void BitWriter::AppendWord(uint64_t word) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(word >> (56 - 8 * i));
  }
  buf_.insert(buf_.end(), bytes, bytes + 8);
}

void BitWriter::WriteUnary(uint32_t count) {
  while (count >= 32) {
    WriteBits(0xFFFFFFFFull, 32);
    count -= 32;
  }
  // `count` ones followed by the terminating zero, in one call.
  WriteBits(((uint64_t{1} << count) - 1) << 1, static_cast<int>(count) + 1);
}

const Bytes& BitWriter::Flush() {
  for (int shift = 56; shift >= free_ - 7; shift -= 8) {
    buf_.push_back(static_cast<uint8_t>(acc_ >> shift));
  }
  acc_ = 0;
  free_ = 64;
  return buf_;
}

Bytes BitWriter::Finish() {
  Flush();
  return std::move(buf_);
}

void BitWriter::Clear() {
  buf_.clear();
  acc_ = 0;
  free_ = 64;
}

void BitReader::Refill() {
  if (avail_ > 56) {
    return;
  }
  if (len_ - next_ >= 8) {
    uint64_t word = 0;
    for (int i = 0; i < 8; ++i) {
      word = (word << 8) | data_[next_ + static_cast<size_t>(i)];
    }
    // Whole bytes that fit; their bits only, so the low bits stay zero.
    const int bytes = (64 - avail_) >> 3;
    word &= ~uint64_t{0} << (64 - 8 * bytes);
    window_ |= word >> avail_;
    next_ += static_cast<size_t>(bytes);
    avail_ += 8 * bytes;
    return;
  }
  while (avail_ <= 56 && next_ < len_) {
    window_ |= uint64_t{data_[next_++]} << (56 - avail_);
    avail_ += 8;
  }
}

Result<uint64_t> BitReader::ReadBitsSlow(int bits) {
  if (static_cast<size_t>(bits) >
      static_cast<size_t>(avail_) + 8 * (len_ - next_)) {
    return OutOfRangeError("bitstream exhausted");
  }
  Refill();
  if (bits > 56) {
    // Wider than one refill guarantees: the top bits, then the low 32.
    const uint64_t high = Take(bits - 32);
    Refill();
    return (high << 32) | Take(32);
  }
  return Take(bits);
}

Result<uint32_t> BitReader::ReadUnarySlow(uint32_t max_run) {
  uint32_t count = 0;
  for (;;) {
    // The window's low bits are zero, so the run of ones stops at avail_.
    const int ones = std::countl_one(window_);
    count += static_cast<uint32_t>(ones);
    if (ones < avail_) {
      window_ = window_ << ones << 1;  // Also consume the terminating zero.
      avail_ -= ones + 1;
      break;
    }
    window_ = 0;
    avail_ = 0;
    if (count > max_run) {
      break;
    }
    Refill();
    if (avail_ == 0) {
      return OutOfRangeError("bitstream exhausted");
    }
  }
  if (count > max_run) {
    return DataLossError("unary run exceeds limit (corrupt bitstream)");
  }
  return count;
}

}  // namespace espk
