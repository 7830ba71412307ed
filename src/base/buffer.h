// Refcounted immutable payload buffers — the mbuf-chain idiom of the
// paper's OpenBSD host, adapted to the simulator. A `Buffer` owns one
// contiguous, immutable byte allocation with a refcount; a `BufferSlice` is
// a cheap (pointer, offset, length) view that shares ownership. Serializing
// once into a `BufferBuilder` and fanning the resulting slice out to N
// receivers costs N refcount bumps, not N payload copies — the property the
// fan-out benchmark (bench/bench_fanout.cc) pins.
//
// Cross-shard ownership rule (the sharded runtime, src/sim/shard.h):
// a shard's event loop is single-threaded, so the refcount is a plain int —
// the common case pays nothing for the sharded runtime's existence. A
// buffer whose slices will be handed to another shard MUST first be flagged
// with MarkCrossShard(): the flag flips that one allocation's refcount ops
// to std::atomic_ref (relaxed increments; acq_rel decrement, so the last
// owner's unref synchronizes-with the delete). Marking must happen while
// the buffer is still touched by only its producer — the flag itself is
// published by the same barrier edge that publishes the payload.
//
// Debug builds guard the non-atomic path: the first shard whose event loop
// bumps a rep's refcount becomes its recorded owner
// (BufferOwnerScope::current()), and any later bump from a DIFFERENT shard
// asserts — catching an unmarked buffer leaking across a shard boundary
// before it can corrupt the count. Code running outside any shard scope
// (setup, tests, the barrier interludes) is exempt: it is serialized with
// every shard by construction.
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
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "src/base/bytes.h"

namespace espk {

// Debug-build ownership token for the non-atomic refcount assertion. The
// sharded runtime wraps each shard's execution in a scope carrying a
// nonzero token (shard id + 1); token 0 means "outside any shard" and is
// compatible with everything. Thread-local, so it also works when many
// shards share one OS thread (the inline executor).
class BufferOwnerScope {
 public:
  explicit BufferOwnerScope(uint32_t token) : saved_(Current()) {
    Current() = token;
  }
  ~BufferOwnerScope() { Current() = saved_; }
  BufferOwnerScope(const BufferOwnerScope&) = delete;
  BufferOwnerScope& operator=(const BufferOwnerScope&) = delete;

  static uint32_t current() { return Current(); }

 private:
  static uint32_t& Current();
  uint32_t saved_;
};

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
    if (rep_ == nullptr) {
      return 0;
    }
    if (rep_->cross_shard) {
      return std::atomic_ref<int>(rep_->refcount)
          .load(std::memory_order_relaxed);
    }
    return rep_->refcount;
  }

  // Flips this allocation's refcount to the atomic variant. Must be called
  // before any slice of it is handed to another shard, while the producer
  // still has exclusive (single-shard) access. Idempotent; no-op on a null
  // buffer.
  void MarkCrossShard() {
    if (rep_ != nullptr) {
      rep_->cross_shard = true;
    }
  }
  bool cross_shard() const { return rep_ != nullptr && rep_->cross_shard; }

 private:
  struct Rep {
    explicit Rep(Bytes&& s) : storage(std::move(s)) {}
    Bytes storage;
    int refcount = 1;  // Plain on the single-shard path; see cross_shard.
    // Set once by MarkCrossShard before the buffer crosses; every refcount
    // op afterwards goes through std::atomic_ref. Reading it from consumer
    // shards is race-free because the handoff that carried the slice also
    // published the flag.
    bool cross_shard = false;
#ifndef NDEBUG
    uint32_t owner = 0;  // First shard to bump the count; 0 = unclaimed.
#endif
  };

  explicit Buffer(Rep* rep) : rep_(rep) {}

  // Debug guard on the non-atomic path: adopt the first shard that shares
  // this rep, then insist every later share comes from the same shard.
  static void CheckOwner(Rep* rep) {
#ifndef NDEBUG
    const uint32_t token = BufferOwnerScope::current();
    if (token == 0) {
      return;  // Outside shard scopes everything is barrier-serialized.
    }
    if (rep->owner == 0) {
      rep->owner = token;
      return;
    }
    assert(rep->owner == token &&
           "non-atomic Buffer shared across shards — MarkCrossShard() the "
           "payload before posting it");
#else
    (void)rep;
#endif
  }

  void Ref() {
    if (rep_ == nullptr) {
      return;
    }
    ++buffer_counters().shares;
    if (rep_->cross_shard) {
      std::atomic_ref<int>(rep_->refcount)
          .fetch_add(1, std::memory_order_relaxed);
      return;
    }
    CheckOwner(rep_);
    ++rep_->refcount;
  }
  void Unref() {
    if (rep_ == nullptr) {
      return;
    }
    if (rep_->cross_shard) {
      // acq_rel: the winner of the race to zero must observe every other
      // shard's final writes before running the destructor.
      if (std::atomic_ref<int>(rep_->refcount)
              .fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete rep_;
      }
      return;
    }
    CheckOwner(rep_);
    if (--rep_->refcount == 0) {
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

  // See Buffer::MarkCrossShard — call before posting this slice to another
  // shard.
  void MarkCrossShard() { buffer_.MarkCrossShard(); }
  bool cross_shard() const { return buffer_.cross_shard(); }

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
