// Chase–Lev work-stealing deque used by the parallel GC phases.
//
// The owner pushes/pops at the bottom; thieves steal from the top. This is
// the classic structure HotSpot's ParallelGC task queues are based on. The
// implementation follows the C11-memory-model version from Lê et al.,
// "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP'13),
// fixed-capacity variant with overflow into a locked vector, in its
// fence-free form: the two seq_cst fences become seq_cst accesses (Pop's
// exchange of bottom_ and its load of top_; Steal's loads of top_ and then
// bottom_), which order the same store-load pairs and which ThreadSanitizer
// can model.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "support/check.h"
#include "support/spin_lock.h"

namespace svagc {

template <typename T>
class WorkStealingDeque {
  // Ring slots are relaxed atomics (as in the PPoPP'13 model): a thief may
  // load a slot the owner is concurrently recycling, and the CAS on top_
  // then rejects the stale value. Plain slots would make that load a data
  // race in the C++ model even though the value is discarded.
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit WorkStealingDeque(std::size_t capacity_pow2 = 1 << 14)
      : mask_(capacity_pow2 - 1), buffer_(capacity_pow2) {
    SVAGC_CHECK((capacity_pow2 & mask_) == 0);  // power of two
  }

  // Owner-only.
  void Push(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t > static_cast<std::int64_t>(mask_)) {
      // Ring is full; spill to the overflow list rather than resizing the
      // ring under concurrent thieves.
      SpinLockGuard guard(overflow_lock_);
      overflow_.push_back(std::move(value));
      overflow_empty_.store(false, std::memory_order_relaxed);
      return;
    }
    buffer_[static_cast<std::size_t>(b) & mask_].store(
        value, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
  }

  // Owner-only.
  std::optional<T> Pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // Publish the claim on slot b before reading top_: a thief that read
    // the old bottom_ must be seen here through top_, or lose the CAS.
    bottom_.exchange(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Deque was empty; restore and try the overflow list.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return PopOverflow();
    }
    T value = buffer_[static_cast<std::size_t>(b) & mask_].load(
        std::memory_order_relaxed);
    if (t == b) {
      // Last element: race with thieves via CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        bottom_.store(b + 1, std::memory_order_relaxed);
        return PopOverflow();
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return value;
  }

  // Any thread.
  std::optional<T> Steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return PopOverflow();
    T value = buffer_[static_cast<std::size_t>(t) & mask_].load(
        std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return std::nullopt;  // lost the race; caller retries elsewhere
    }
    return value;
  }

  // Quiescent-state only (no concurrent owner or thieves): rewinds the ring
  // indices and drops any overflow so the deque can be reused across GC
  // cycles without reallocating the ring buffer.
  void Reset() {
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
    SpinLockGuard guard(overflow_lock_);
    overflow_.clear();
    overflow_empty_.store(true, std::memory_order_relaxed);
  }

  bool LooksEmpty() const {
    return bottom_.load(std::memory_order_relaxed) <=
               top_.load(std::memory_order_relaxed) &&
           overflow_empty_.load(std::memory_order_relaxed);
  }

 private:
  std::optional<T> PopOverflow() {
    if (overflow_empty_.load(std::memory_order_relaxed)) return std::nullopt;
    SpinLockGuard guard(overflow_lock_);
    if (overflow_.empty()) {
      overflow_empty_.store(true, std::memory_order_relaxed);
      return std::nullopt;
    }
    T value = std::move(overflow_.back());
    overflow_.pop_back();
    if (overflow_.empty()) overflow_empty_.store(true, std::memory_order_relaxed);
    return value;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  const std::size_t mask_;
  std::vector<std::atomic<T>> buffer_;

  SpinLock overflow_lock_;
  std::vector<T> overflow_;
  std::atomic<bool> overflow_empty_{true};
};

}  // namespace svagc
