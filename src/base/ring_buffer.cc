#include "src/base/ring_buffer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace espk {

RingBuffer::RingBuffer(size_t capacity) : buf_(capacity) {
  assert(capacity > 0 && "ring buffer needs nonzero capacity");
}

size_t RingBuffer::Write(const uint8_t* data, size_t len) {
  size_t to_write = std::min(len, free_space());
  size_t tail = (head_ + size_) % capacity();
  size_t first = std::min(to_write, capacity() - tail);
  std::memcpy(buf_.data() + tail, data, first);
  std::memcpy(buf_.data(), data + first, to_write - first);
  size_ += to_write;
  total_written_ += to_write;
  return to_write;
}

size_t RingBuffer::Read(uint8_t* out, size_t len) {
  size_t got = Peek(out, len);
  Drop(got);
  return got;
}

std::vector<uint8_t> RingBuffer::ReadUpTo(size_t len) {
  std::vector<uint8_t> out(std::min(len, size_));
  size_t got = Read(out.data(), out.size());
  out.resize(got);
  return out;
}

size_t RingBuffer::Peek(uint8_t* out, size_t len) const {
  size_t to_read = std::min(len, size_);
  if (to_read == 0) {
    return 0;  // `out` may be null (an empty vector's data()).
  }
  size_t first = std::min(to_read, capacity() - head_);
  std::memcpy(out, buf_.data() + head_, first);
  std::memcpy(out + first, buf_.data(), to_read - first);
  return to_read;
}

size_t RingBuffer::Drop(size_t len) {
  size_t to_drop = std::min(len, size_);
  head_ = (head_ + to_drop) % capacity();
  size_ -= to_drop;
  total_read_ += to_drop;
  return to_drop;
}

void RingBuffer::Clear() {
  head_ = 0;
  size_ = 0;
}

void RingBuffer::SetCapacity(size_t capacity) {
  assert(capacity > 0 && "ring buffer needs nonzero capacity");
  std::vector<uint8_t> newest(std::min(size_, capacity));
  // Keep the newest bytes: skip whatever does not fit.
  size_t skip = size_ - newest.size();
  Drop(skip);
  Peek(newest.data(), newest.size());
  buf_.assign(capacity, 0);
  head_ = 0;
  size_ = 0;
  Write(newest.data(), newest.size());
  // Capacity changes are bookkeeping, not I/O: undo the counter bumps the
  // preserve-copy caused.
  total_written_ -= newest.size();
  total_read_ -= skip;
}

}  // namespace espk
