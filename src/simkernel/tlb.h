// Per-core TLB model.
//
// Set-associative, tagged by (address-space id, vpn), with LRU replacement.
// It serves two roles: (1) cost accounting — translations hit or miss and a
// miss costs a hardware page walk; (2) correctness of the shootdown logic —
// a core that skips a needed flush would observe a stale frame, and the
// address-space layer asserts translations against the live page table, so
// shootdown bugs surface as hard failures in tests.
//
// Huge (2 MiB) entries share the array: one entry tagged by the unit-base
// vpn maps kPagesPerHuge pages (the dTLB-reach benefit of PMD leaves).
// FlushPage of any 4 KiB vpn inside a huge-mapped unit invalidates the huge
// entry — the shootdown granularity a real invlpg provides.
//
// Host-time shortcut: each Tlb counts its live entries per ASID and its live
// huge entries. A flush of an ASID with no entry returns at once instead of
// scanning the array, a lookup for such an ASID misses without a probe, and
// the huge-tag probe is skipped while no huge entry exists. The outcome of
// every call (hit, frame, LRU stamps, the hit/miss/flush tallies) is what
// the full scan gives; the counts only decide how much host work finds it.
// A Tlb owned by a Machine also publishes, per dense ASID, whether it holds
// any entry, as one bit of a machine-wide core mask (AttachCoreMask), so a
// page flush on every core visits only the cores that can hold the page.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "simkernel/config.h"
#include "support/check.h"
#include "support/spin_lock.h"

namespace svagc::sim {

// One valid TLB entry, as observed by SnapshotValidEntries. For huge
// entries, vpn is the unit-base vpn and frame the unit-base frame.
struct TlbSnapshotEntry {
  std::uint64_t asid = 0;
  std::uint64_t vpn = 0;
  frame_t frame = kInvalidFrame;
  bool huge = false;
};

class Tlb {
 public:
  // Defaults approximate a Skylake STLB: 1536 entries, 12-way.
  explicit Tlb(unsigned entries = 1536, unsigned ways = 12);

  struct LookupResult {
    bool hit = false;
    frame_t frame = kInvalidFrame;
  };

  // Thread-safe: remote cores may flush while the owner translates.
  // Probes the 4 KiB tag first, then the huge tag of the covering unit (a
  // huge hit returns the per-page frame, base + offset-in-unit).
  LookupResult Lookup(std::uint64_t asid, std::uint64_t vpn);
  void Insert(std::uint64_t asid, std::uint64_t vpn, frame_t frame);
  // Installs a 2 MiB entry; vpn must be the unit-base vpn.
  void InsertHuge(std::uint64_t asid, std::uint64_t vpn, frame_t base_frame);

  // Full flush of one address space's entries (CR3 switch / flush_tlb_local).
  void FlushAsid(std::uint64_t asid);
  // Single-page invalidation (invlpg / flush_tlb_page). Also drops the huge
  // entry covering vpn, if any — invalidation granularity must never be
  // finer than the mapping granularity.
  void FlushPage(std::uint64_t asid, std::uint64_t vpn);
  void FlushAll();

  // Copies every valid entry under the lock — the TLB-coherence invariant
  // compares these against the live page table. Observation only: no cost
  // accounting, no LRU update.
  std::vector<TlbSnapshotEntry> SnapshotValidEntries();

  // Occupancy counts behind the host-time shortcut. ASIDs at or above
  // kDenseAsids share one count (an upper bound for each of them).
  static constexpr std::uint64_t kDenseAsids = 4096;
  std::uint64_t LiveEntries(std::uint64_t asid);
  std::uint64_t LiveHugeEntries();

  // Publishes occupancy into `masks` (kDenseAsids words): bit `core` of
  // masks[asid] is set, with release ordering and under this TLB's lock,
  // exactly while this TLB holds an entry of dense ASID `asid`. Readers
  // load a word with acquire ordering. Call once, while the TLB is empty.
  void AttachCoreMask(std::atomic<std::uint64_t>* masks, unsigned core);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  struct Entry {
    bool valid = false;
    bool huge = false;
    std::uint64_t asid = 0;
    std::uint64_t vpn = 0;
    frame_t frame = kInvalidFrame;
    std::uint64_t lru = 0;  // last-use stamp
  };

  std::size_t SetIndex(std::uint64_t asid, std::uint64_t vpn) const {
    // Mix asid into the index so multi-process cores do not false-share sets.
    return static_cast<std::size_t>((vpn ^ (asid * 0x9E3779B9ULL)) % sets_);
  }
  // Huge entries index by unit number in a distinct key namespace, so a
  // 4 KiB entry for the unit-base vpn and the huge entry for the unit do
  // not contend for the same tag.
  std::size_t HugeSetIndex(std::uint64_t asid, std::uint64_t vpn) const {
    return SetIndex(asid, (vpn >> kLevelBits) ^ 0x5A5A5A5AULL);
  }

  LookupResult LookupTagged(std::uint64_t asid, std::uint64_t vpn, bool huge);
  void InsertTagged(std::uint64_t asid, std::uint64_t vpn, frame_t frame,
                    bool huge);

  // Index into live_: dense ASIDs by value, the rest in slot 0.
  static std::size_t OccupancySlot(std::uint64_t asid) {
    return asid < kDenseAsids ? static_cast<std::size_t>(asid) + 1 : 0;
  }
  std::uint32_t LiveLocked(std::uint64_t asid) const {
    const std::size_t slot = OccupancySlot(asid);
    return slot < live_.size() ? live_[slot] : 0;
  }
  // Invalidates a valid entry and drops it from the counts.
  void Invalidate(Entry& entry) {
    entry.valid = false;
    const std::size_t slot = OccupancySlot(entry.asid);
    if (--live_[slot] == 0) PublishOccupancy(slot, false);
    if (entry.huge) --live_huge_;
  }
  // Sets or clears this core's bit for the dense ASID of occupancy slot
  // `slot` (slot 0, the shared sparse count, has no mask word).
  void PublishOccupancy(std::size_t slot, bool holds) {
    if (core_masks_ == nullptr || slot == 0) return;
    std::atomic<std::uint64_t>& word = core_masks_[slot - 1];
    if (holds) {
      word.fetch_or(core_bit_, std::memory_order_release);
    } else {
      word.fetch_and(~core_bit_, std::memory_order_release);
    }
  }

  unsigned sets_;
  unsigned ways_;
  std::vector<Entry> entries_;  // sets_ x ways_, row-major
  std::uint64_t clock_ = 0;
  std::vector<std::uint32_t> live_;  // per OccupancySlot; grows on insert
  std::uint32_t live_huge_ = 0;
  std::atomic<std::uint64_t>* core_masks_ = nullptr;  // not owned
  std::uint64_t core_bit_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t flushes_ = 0;

  SpinLock lock_;
};

}  // namespace svagc::sim
