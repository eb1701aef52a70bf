#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// \file provenance.hpp
/// The buffers behind Sample::inputs (the PCL data tree of paper Fig. 4):
/// each counts its own references and returns itself to the pool of the
/// graph that created it on its last release, from any thread.

namespace perpos::core {

struct Sample;
class ProvenancePool;

struct ProvenanceBuffer {
  std::atomic<std::uint32_t> refs{0};
  std::vector<Sample> samples;
  ProvenanceBuffer* next = nullptr;  ///< Free-list link while refs == 0.
  ProvenancePool* pool = nullptr;
};

/// Shared read-only handle to a provenance batch, read like a shared_ptr.
/// A copy increments relaxed and a release decrements acq_rel (no fences,
/// which TSan cannot model), so whoever reuses the buffer sees every write
/// made through it.
class ProvenanceRef {
 public:
  ProvenanceRef() noexcept = default;
  ProvenanceRef(const ProvenanceRef& other) noexcept : buffer_(other.buffer_) {
    if (buffer_ != nullptr) {
      buffer_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ProvenanceRef(ProvenanceRef&& other) noexcept
      : buffer_(std::exchange(other.buffer_, nullptr)) {}
  ProvenanceRef& operator=(ProvenanceRef other) noexcept {
    std::swap(buffer_, other.buffer_);
    return *this;
  }
  ~ProvenanceRef() {
    if (buffer_ != nullptr &&
        buffer_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      give_back(buffer_);
    }
  }

  explicit operator bool() const noexcept { return buffer_ != nullptr; }
  const std::vector<Sample>& operator*() const noexcept {
    return buffer_->samples;
  }
  const std::vector<Sample>* operator->() const noexcept {
    return &buffer_->samples;
  }
  friend bool operator==(const ProvenanceRef& ref, std::nullptr_t) noexcept {
    return ref.buffer_ == nullptr;
  }

 private:
  friend class ProvenancePool;
  /// Treiber-push a dead buffer onto its pool's return stack, or free it
  /// once the pool is closed.
  static void give_back(ProvenanceBuffer* buffer) noexcept;

  ProvenanceBuffer* buffer_ = nullptr;
};

/// The recycler of one graph. It holds one reference for the graph and one
/// per buffer it created, so buffers the application keeps outlive the
/// graph. Only the owner pops the return stack, all of it with one
/// exchange: no ABA.
class ProvenancePool {
 public:
  /// Moves `batch` into a buffer with one reference, leaving the buffer's
  /// cleared storage in `batch`. A returned buffer is cleared only here. One
  /// still referenced (a counting bug) is skipped and counted for
  /// take_skipped(). Owner thread only.
  ProvenanceRef acquire(std::vector<Sample>& batch);

  /// Buffers acquire() skipped since the last call (PPS003 findings).
  std::size_t take_skipped() noexcept { return std::exchange(skipped_, 0); }

  /// The owner's teardown once none of its samples is left: frees returned
  /// buffers until the stack stays empty and marks it closed. A buffer
  /// released later frees itself.
  void close() noexcept;

  struct Closer {
    void operator()(ProvenancePool* pool) const noexcept { pool->close(); }
  };

 private:
  friend class ProvenanceRef;
  ~ProvenancePool() = default;
  /// Clears `buffer`; buffers that die with its samples go onto `list`, so
  /// a chain of any depth unwinds without recursion. (Each keeps its own
  /// `pool`, which it returns to and unrefs, so any list may hold it.)
  static void release_samples(ProvenanceBuffer& buffer,
                              ProvenanceBuffer*& list) noexcept;
  /// Frees `list` and every buffer that dies with it.
  static void free_chain(ProvenanceBuffer* list) noexcept;
  void unref() noexcept;

  std::atomic<ProvenanceBuffer*> returned_{nullptr};
  ProvenanceBuffer* local_ = nullptr;  ///< Owner-only free list.
  std::size_t skipped_ = 0;
  std::atomic<std::uint32_t> refs_{1};
};

}  // namespace perpos::core
