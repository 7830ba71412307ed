// Refcounted immutable payload buffers — the mbuf-chain idiom of the
// paper's OpenBSD host, adapted to the simulator. A `Buffer` owns one
// contiguous, immutable byte allocation with a refcount; a `BufferSlice` is
// a cheap (pointer, offset, length) view that shares ownership. Serializing
// once into a `BufferBuilder` and fanning the resulting slice out to N
// receivers costs N refcount bumps, not N payload copies — the property the
// fan-out benchmark (bench/bench_fanout.cc) pins.
//
// The refcount is one std::atomic<int>, so any shard's thread may copy or
// drop a handle with no ownership rule: increments are relaxed because a new
// handle is always made from one already held, and the decrement is acq_rel
// so the owner that takes the count to zero sees every other owner's reads
// of the bytes before it deletes them.
//
// Conversions from `Bytes` are deliberately implicit so the whole codebase
// can migrate call-site by call-site:
//   * `Bytes&&`      adopts the vector's storage — zero copy; this is what
//                    `writer.TakeBytes()`-style producers hit.
//   * `const Bytes&` copies once into a fresh buffer (compat path; counted
//                    in buffer_counters().payload_copies so benchmarks can
//                    prove hot paths never take it).
#ifndef SRC_BASE_BUFFER_H_
#define SRC_BASE_BUFFER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "src/base/bytes.h"

namespace espk {

// Per-thread tallies of buffer traffic (thread-local so shard workers never
// contend or race on them); bench_fanout diffs these around a
// send→N-receiver run to show copies are O(1) per transmission while shares
// are O(N). Single-threaded callers see exactly the old global behavior.
struct BufferCounters {
  uint64_t buffers_created = 0;   // Control blocks allocated (copy or adopt).
  uint64_t payload_copies = 0;    // Byte-copying constructions.
  uint64_t payload_bytes_copied = 0;
  uint64_t adoptions = 0;         // Zero-copy takeovers of Bytes storage.
  uint64_t shares = 0;            // Refcount bumps (slice/buffer copies).
};

BufferCounters& buffer_counters();
void ResetBufferCounters();

// Shared-ownership handle to one immutable contiguous byte allocation.
class Buffer {
 public:
  Buffer() = default;  // Null buffer: data() == nullptr, size() == 0.

  // Copies `size` bytes into a fresh allocation.
  static Buffer Copy(const void* data, size_t size);
  static Buffer Copy(const Bytes& bytes) {
    return Copy(bytes.data(), bytes.size());
  }
  // Adopts the vector's storage without copying the payload.
  static Buffer FromBytes(Bytes&& bytes);

  Buffer(const Buffer& other) : rep_(other.rep_) { Ref(); }
  Buffer(Buffer&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Buffer& operator=(const Buffer& other);
  Buffer& operator=(Buffer&& other) noexcept;
  ~Buffer() { Unref(); }

  const uint8_t* data() const {
    return rep_ != nullptr ? rep_->storage.data() : nullptr;
  }
  size_t size() const { return rep_ != nullptr ? rep_->storage.size() : 0; }
  bool empty() const { return size() == 0; }
  explicit operator bool() const { return rep_ != nullptr; }

  // Outstanding handles (buffers + slices) sharing this allocation; 0 for a
  // null buffer. Tests use this to prove slices keep payloads alive.
  int use_count() const {
    return rep_ != nullptr ? rep_->refcount.load(std::memory_order_relaxed)
                           : 0;
  }

 private:
  struct Rep {
    explicit Rep(Bytes&& s) : storage(std::move(s)) {}
    Bytes storage;
    std::atomic<int> refcount{1};
  };

  explicit Buffer(Rep* rep) : rep_(rep) {}

  void Ref() {
    if (rep_ == nullptr) {
      return;
    }
    ++buffer_counters().shares;
    rep_->refcount.fetch_add(1, std::memory_order_relaxed);
  }
  void Unref() {
    if (rep_ != nullptr &&
        rep_->refcount.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
  }

  Rep* rep_ = nullptr;
};

// A view of [offset, offset+length) over a shared Buffer. Copying a slice
// bumps the refcount; the bytes themselves are never duplicated until
// someone explicitly asks with ToBytes().
class BufferSlice {
 public:
  BufferSlice() = default;  // Empty view.

  // Whole-buffer view (implicit: a Buffer is already shared ownership).
  BufferSlice(Buffer buffer)  // NOLINT(google-explicit-constructor)
      : length_(buffer.size()), buffer_(std::move(buffer)) {}
  BufferSlice(Buffer buffer, size_t offset, size_t length);

  // Compat copy conversion: one fresh buffer per call. Kept implicit so
  // legacy `Bytes` producers still compile; hot paths must pass slices or
  // rvalue Bytes instead (see buffer_counters().payload_copies).
  BufferSlice(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
      : BufferSlice(Buffer::Copy(bytes)) {}
  // Zero-copy adoption of an expiring vector.
  BufferSlice(Bytes&& bytes)  // NOLINT(google-explicit-constructor)
      : BufferSlice(Buffer::FromBytes(std::move(bytes))) {}
  BufferSlice(std::initializer_list<uint8_t> bytes)
      : BufferSlice(Buffer::Copy(bytes.begin(), bytes.size())) {}

  const uint8_t* data() const { return buffer_.data() + offset_; }
  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + length_; }

  // A narrower view over the same allocation (no copy). Clamped to this
  // slice's bounds.
  BufferSlice Subslice(size_t offset, size_t length) const;

  // Explicit copy-out for consumers that need owned, mutable bytes.
  Bytes ToBytes() const { return Bytes(begin(), end()); }

  const Buffer& buffer() const { return buffer_; }
  int use_count() const { return buffer_.use_count(); }

  // Content equality (not identity): two slices are equal when their bytes
  // are, wherever they live. The Bytes overload keeps `parsed.payload ==
  // expected_vector` tests working unchanged.
  bool operator==(const BufferSlice& other) const;
  bool operator==(const Bytes& other) const;

 private:
  size_t offset_ = 0;
  size_t length_ = 0;
  Buffer buffer_;
};

// ByteWriter that finishes into a refcounted buffer: serialize once, share
// everywhere. `Finish()` adopts the accumulated bytes (no copy) and resets
// the builder for reuse.
class BufferBuilder : public ByteWriter {
 public:
  Buffer FinishBuffer() { return Buffer::FromBytes(TakeBytes()); }
  BufferSlice Finish() { return BufferSlice(FinishBuffer()); }
};

}  // namespace espk

#endif  // SRC_BASE_BUFFER_H_
