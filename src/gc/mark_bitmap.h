// Mark bitmap: one bit per 8-byte heap word, atomically settable so the
// parallel marking workers can claim objects without locks.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "runtime/heap.h"
#include "support/check.h"

namespace svagc::gc {

class MarkBitmap {
 public:
  explicit MarkBitmap(const rt::Heap& heap)
      : heap_(heap), bits_((heap.capacity_words() + 63) / 64) {}

  void Clear() {
    for (auto& word : bits_) word.store(0, std::memory_order_relaxed);
  }

  // Returns true when this call marked the object (false: already marked).
  bool TestAndSet(rt::vaddr_t addr) {
    const std::uint64_t index = heap_.WordIndex(addr);
    const std::uint64_t mask = 1ULL << (index & 63);
    const std::uint64_t prev =
        bits_[index >> 6].fetch_or(mask, std::memory_order_relaxed);
    return (prev & mask) == 0;
  }

  bool IsMarked(rt::vaddr_t addr) const {
    const std::uint64_t index = heap_.WordIndex(addr);
    return (bits_[index >> 6].load(std::memory_order_relaxed) >>
            (index & 63)) & 1;
  }

  // The first marked word address in [from, end), or `end` when there is
  // none — the resumable form of ForEachMarkedInRange that the forwarding
  // walk steps with. `from` may lie past `end` (an object straddling it).
  rt::vaddr_t NextMarked(rt::vaddr_t from, rt::vaddr_t end) const {
    SVAGC_DCHECK(from >= heap_.base() && ((from | end) & 7) == 0);
    const rt::vaddr_t base = heap_.base();
    std::uint64_t index = (from - base) >> 3;
    const std::uint64_t index_end = (end - base) >> 3;
    while (index < index_end) {
      const std::uint64_t word =
          bits_[index >> 6].load(std::memory_order_relaxed) &
          (~0ULL << (index & 63));
      const std::uint64_t word_base = index & ~63ULL;
      if (word != 0) {
        const std::uint64_t found =
            word_base + static_cast<unsigned>(std::countr_zero(word));
        return found < index_end ? base + (found << 3) : end;
      }
      index = word_base + 64;
    }
    return end;
  }

  // Invokes f(addr) for every marked word address in [begin, end), ascending.
  // Marking sets bits only at object start addresses, so this enumerates the
  // live objects whose headers lie in the range — the per-region iteration
  // primitive of the parallel forwarding summary. `end` may equal heap end.
  template <typename F>
  void ForEachMarkedInRange(rt::vaddr_t begin, rt::vaddr_t end, F&& f) const {
    for (rt::vaddr_t addr = NextMarked(begin, end); addr < end;
         addr = NextMarked(addr + 8, end)) {
      f(addr);
    }
  }

 private:
  const rt::Heap& heap_;
  std::vector<std::atomic<std::uint64_t>> bits_;
};

}  // namespace svagc::gc
