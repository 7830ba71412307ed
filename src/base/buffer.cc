#include "src/base/buffer.h"

#include <cstring>

namespace espk {

BufferCounters& buffer_counters() {
  static thread_local BufferCounters counters;
  return counters;
}

void ResetBufferCounters() { buffer_counters() = BufferCounters{}; }

Buffer Buffer::Copy(const void* data, size_t size) {
  Bytes storage(size);
  if (size > 0) {
    std::memcpy(storage.data(), data, size);
  }
  BufferCounters& c = buffer_counters();
  ++c.buffers_created;
  ++c.payload_copies;
  c.payload_bytes_copied += size;
  return Buffer(new Rep(std::move(storage)));
}

Buffer Buffer::FromBytes(Bytes&& bytes) {
  BufferCounters& c = buffer_counters();
  ++c.buffers_created;
  ++c.adoptions;
  return Buffer(new Rep(std::move(bytes)));
}

Buffer& Buffer::operator=(const Buffer& other) {
  if (this != &other) {
    Unref();
    rep_ = other.rep_;
    Ref();
  }
  return *this;
}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    Unref();
    rep_ = other.rep_;
    other.rep_ = nullptr;
  }
  return *this;
}

BufferSlice::BufferSlice(Buffer buffer, size_t offset, size_t length) {
  const size_t buffer_size = buffer.size();
  offset_ = offset < buffer_size ? offset : buffer_size;
  const size_t available = buffer_size - offset_;
  length_ = length < available ? length : available;
  buffer_ = std::move(buffer);
}

BufferSlice BufferSlice::Subslice(size_t offset, size_t length) const {
  const size_t clamped_offset = offset < length_ ? offset : length_;
  const size_t available = length_ - clamped_offset;
  const size_t clamped_length = length < available ? length : available;
  return BufferSlice(buffer_, offset_ + clamped_offset, clamped_length);
}

bool BufferSlice::operator==(const BufferSlice& other) const {
  return length_ == other.length_ &&
         (length_ == 0 || std::memcmp(data(), other.data(), length_) == 0);
}

bool BufferSlice::operator==(const Bytes& other) const {
  return length_ == other.size() &&
         (length_ == 0 || std::memcmp(data(), other.data(), length_) == 0);
}

}  // namespace espk
