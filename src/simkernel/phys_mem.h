// Simulated physical memory: a real backing buffer carved into 4 KiB frames.
//
// Frames hold real bytes. The memmove GC path copies these bytes for real;
// the SwapVA path swaps only PTEs, after which virtual addresses resolve to
// different frames — the data genuinely moves without being copied, exactly
// the zero-copy property the paper exploits.
//
// Host-time shortcut: each frame carries a "known zero" bit. ZeroPage sets
// it after clearing a whole frame and skips the memset while it is set;
// every other way a frame's bytes can change clears it (AllocFrame and
// AllocContiguous hand out frames whose bytes the caller overwrites;
// writers through FrameData pointers report with NoteWrite). Because
// SwapVA and the far tier move frames, not bytes, the bit travels with the
// frame. The bit changes host work only, never a modeled charge or byte
// tally.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "simkernel/config.h"
#include "support/check.h"
#include "support/spin_lock.h"

namespace svagc::sim {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::uint64_t bytes);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // Allocates one frame; aborts on exhaustion (the caller sizes physical
  // memory to the experiment; OOM here is a harness bug, not a GC event).
  frame_t AllocFrame();
  void FreeFrame(frame_t frame);

  // Allocates `count` physically-contiguous frames and returns the base —
  // the backing a 2 MiB PMD leaf needs. Setup-time only (address-space
  // construction, like hugetlbfs reservation); aborts when no contiguous
  // run exists. Freed frame-by-frame with FreeFrame.
  frame_t AllocContiguous(std::uint64_t count);

  std::byte* FrameData(frame_t frame) {
    SVAGC_DCHECK(frame < total_frames_);
    return backing_.get() + (frame << kPageShift);
  }
  const std::byte* FrameData(frame_t frame) const {
    SVAGC_DCHECK(frame < total_frames_);
    return backing_.get() + (frame << kPageShift);
  }

  // Zeroes [p, p + bytes), which must lie inside one frame, unless the
  // frame is known zero. A whole-frame clear makes the frame known zero.
  void ZeroPage(std::byte* p, std::uint64_t bytes);

  // Reports a write that may have left nonzero bytes at `p`; the frame
  // stops being known zero. `p` must lie in a frame: a swapped-out page's
  // bytes lie in the frame its far-tier slot holds, so writes to resident
  // and swapped pages report alike, and the bit travels with the frame
  // through eviction and swap-in as it does through SwapVA.
  void NoteWrite(const std::byte* p) {
    std::atomic<std::uint8_t>& bit = known_zero_[FrameOf(p)];
    if (bit.load(std::memory_order_relaxed) != 0) {
      bit.store(0, std::memory_order_relaxed);
    }
  }
  bool known_zero(frame_t frame) const {
    SVAGC_DCHECK(frame < total_frames_);
    return known_zero_[frame].load(std::memory_order_relaxed) != 0;
  }

  std::uint64_t total_frames() const { return total_frames_; }
  std::uint64_t free_frames() const;

  // Physical write traffic, maintained by the bulk-copy/zero paths. On a
  // hybrid DRAM/NVM heap this is the wear-limited quantity SwapVA reduces
  // (paper §VI: "replacing costly write operations of NVMs with zero-copying
  // ones"); the NVM-wear ablation bench reads it.
  void NoteBytesWritten(std::uint64_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  // The frame whose bytes hold `p`, which must lie in the backing.
  frame_t FrameOf(const std::byte* p) const {
    const auto offset = reinterpret_cast<std::uintptr_t>(p) -
                        reinterpret_cast<std::uintptr_t>(backing_.get());
    SVAGC_CHECK(offset < (total_frames_ << kPageShift));
    return offset >> kPageShift;
  }

  std::uint64_t total_frames_;
  std::unique_ptr<std::byte[]> backing_;
  // Relaxed atomics: GC workers write disjoint frames concurrently, and a
  // frame changing owner is ordered by the phase joins that hand it over.
  std::unique_ptr<std::atomic<std::uint8_t>[]> known_zero_;

  mutable SpinLock lock_;
  std::vector<frame_t> free_list_;
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace svagc::sim
