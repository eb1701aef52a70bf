#include "perpos/core/provenance.hpp"

#include "perpos/core/sample.hpp"

namespace perpos::core {

namespace {

/// A closed pool's return-stack head. Compared, never dereferenced.
alignas(ProvenanceBuffer) char g_closed;

ProvenanceBuffer* closed_mark() noexcept {
  return reinterpret_cast<ProvenanceBuffer*>(&g_closed);
}

}  // namespace

ProvenanceRef ProvenancePool::acquire(std::vector<Sample>& batch) {
  ProvenanceRef ref;
  while (ref.buffer_ == nullptr) {
    if (returned_.load(std::memory_order_relaxed) != nullptr) {
      // Reuse the latest returns first: they are still in cache. Acquire
      // pairs with every releasing push on the stack.
      ProvenanceBuffer* taken =
          returned_.exchange(nullptr, std::memory_order_acquire);
      ProvenanceBuffer* tail = taken;
      while (tail->next != nullptr) tail = tail->next;
      tail->next = std::exchange(local_, taken);
    }
    if (local_ == nullptr) {
      ref.buffer_ = new ProvenanceBuffer;
      ref.buffer_->pool = this;
      refs_.fetch_add(1, std::memory_order_relaxed);
    } else if (local_->refs.load(std::memory_order_relaxed) != 0) {
      local_ = local_->next;
      ++skipped_;
    } else {
      // The chain level below goes onto the owner list, skipping the
      // stack's round trip; the next acquire clears it.
      ref.buffer_ = std::exchange(local_, local_->next);
      release_samples(*ref.buffer_, local_);
    }
  }
  ref.buffer_->refs.store(1, std::memory_order_relaxed);
  ref.buffer_->samples.swap(batch);
  return ref;
}

void ProvenancePool::release_samples(ProvenanceBuffer& buffer,
                                     ProvenanceBuffer*& list) noexcept {
  for (Sample& s : buffer.samples) {
    ProvenanceBuffer* child = std::exchange(s.inputs.buffer_, nullptr);
    if (child != nullptr &&
        child->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      child->next = std::exchange(list, child);
    }
  }
  buffer.samples.clear();
}

void ProvenancePool::free_chain(ProvenanceBuffer* list) noexcept {
  while (list != nullptr) {
    ProvenanceBuffer* buffer = std::exchange(list, list->next);
    // Still referenced (PPS003): its holder frees it on release.
    if (buffer->refs.load(std::memory_order_relaxed) != 0) continue;
    ProvenancePool* const pool = buffer->pool;
    release_samples(*buffer, list);
    delete buffer;
    pool->unref();
  }
}

void ProvenanceRef::give_back(ProvenanceBuffer* buffer) noexcept {
  ProvenancePool* const pool = buffer->pool;
  ProvenanceBuffer* head = pool->returned_.load(std::memory_order_relaxed);
  do {
    if (head == closed_mark()) {
      buffer->next = nullptr;
      ProvenancePool::free_chain(buffer);
      return;
    }
    buffer->next = head;
  } while (!pool->returned_.compare_exchange_weak(
      head, buffer, std::memory_order_release, std::memory_order_relaxed));
}

void ProvenancePool::close() noexcept {
  free_chain(std::exchange(local_, nullptr));
  ProvenanceBuffer* empty = nullptr;
  while (!returned_.compare_exchange_strong(empty, closed_mark(),
                                            std::memory_order_acq_rel)) {
    free_chain(returned_.exchange(nullptr, std::memory_order_acquire));
    empty = nullptr;
  }
  unref();
}

void ProvenancePool::unref() noexcept {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
}

}  // namespace perpos::core
