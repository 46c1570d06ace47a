#include "simkernel/tlb.h"

#include <algorithm>

namespace svagc::sim {

Tlb::Tlb(unsigned entries, unsigned ways)
    : sets_(entries / ways), ways_(ways), entries_(sets_ * ways_) {
  SVAGC_CHECK(sets_ >= 1 && ways_ >= 1);
}

Tlb::LookupResult Tlb::LookupTagged(std::uint64_t asid, std::uint64_t vpn,
                                    bool huge) {
  const std::uint64_t tag_vpn = huge ? (vpn & ~kIndexMask) : vpn;
  const std::size_t set_index =
      huge ? HugeSetIndex(asid, vpn) : SetIndex(asid, vpn);
  Entry* set = &entries_[set_index * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    Entry& entry = set[w];
    if (entry.valid && entry.huge == huge && entry.asid == asid &&
        entry.vpn == tag_vpn) {
      entry.lru = ++clock_;
      const frame_t frame =
          huge ? entry.frame + (vpn & kIndexMask) : entry.frame;
      return {true, frame};
    }
  }
  return {false, kInvalidFrame};
}

Tlb::LookupResult Tlb::Lookup(std::uint64_t asid, std::uint64_t vpn) {
  SpinLockGuard guard(lock_);
  LookupResult result;
  if (LiveLocked(asid) != 0) {
    result = LookupTagged(asid, vpn, /*huge=*/false);
    if (!result.hit && live_huge_ != 0) {
      result = LookupTagged(asid, vpn, /*huge=*/true);
    }
  }
  if (result.hit) {
    ++hits_;
  } else {
    ++misses_;
  }
  return result;
}

void Tlb::InsertTagged(std::uint64_t asid, std::uint64_t vpn, frame_t frame,
                       bool huge) {
  const std::size_t set_index =
      huge ? HugeSetIndex(asid, vpn) : SetIndex(asid, vpn);
  Entry* set = &entries_[set_index * ways_];
  Entry* victim = &set[0];
  for (unsigned w = 0; w < ways_; ++w) {
    Entry& entry = set[w];
    if (entry.valid && entry.huge == huge && entry.asid == asid &&
        entry.vpn == vpn) {
      entry.frame = frame;  // refresh a racing duplicate
      entry.lru = ++clock_;
      return;
    }
    if (!entry.valid) {
      victim = &entry;
    } else if (victim->valid && entry.lru < victim->lru) {
      victim = &entry;
    }
  }
  if (victim->valid) Invalidate(*victim);
  const std::size_t slot = OccupancySlot(asid);
  if (slot >= live_.size()) live_.resize(slot + 1, 0);
  if (live_[slot]++ == 0) PublishOccupancy(slot, true);
  if (huge) ++live_huge_;
  *victim = Entry{true, huge, asid, vpn, frame, ++clock_};
}

void Tlb::Insert(std::uint64_t asid, std::uint64_t vpn, frame_t frame) {
  SpinLockGuard guard(lock_);
  InsertTagged(asid, vpn, frame, /*huge=*/false);
}

void Tlb::InsertHuge(std::uint64_t asid, std::uint64_t vpn,
                     frame_t base_frame) {
  SVAGC_DCHECK((vpn & kIndexMask) == 0);
  SpinLockGuard guard(lock_);
  InsertTagged(asid, vpn, base_frame, /*huge=*/true);
}

void Tlb::FlushAsid(std::uint64_t asid) {
  SpinLockGuard guard(lock_);
  ++flushes_;
  // Stops once every counted entry is gone; an ASID with none scans nothing.
  std::uint32_t left = LiveLocked(asid);
  for (auto it = entries_.begin(); left != 0 && it != entries_.end(); ++it) {
    if (it->valid && it->asid == asid) {
      Invalidate(*it);
      --left;
    }
  }
}

void Tlb::FlushPage(std::uint64_t asid, std::uint64_t vpn) {
  SpinLockGuard guard(lock_);
  if (LiveLocked(asid) == 0) return;
  Entry* set = &entries_[SetIndex(asid, vpn) * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    Entry& entry = set[w];
    if (entry.valid && !entry.huge && entry.asid == asid && entry.vpn == vpn) {
      Invalidate(entry);
      break;
    }
  }
  if (live_huge_ == 0) return;
  // invlpg semantics: a 4 KiB-granular invalidation inside a huge-mapped
  // unit must drop the whole huge entry.
  const std::uint64_t unit_vpn = vpn & ~kIndexMask;
  Entry* huge_set = &entries_[HugeSetIndex(asid, vpn) * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    Entry& entry = huge_set[w];
    if (entry.valid && entry.huge && entry.asid == asid &&
        entry.vpn == unit_vpn) {
      Invalidate(entry);
      break;
    }
  }
}

std::vector<TlbSnapshotEntry> Tlb::SnapshotValidEntries() {
  SpinLockGuard guard(lock_);
  std::vector<TlbSnapshotEntry> snapshot;
  for (const Entry& entry : entries_) {
    if (entry.valid) {
      snapshot.push_back({entry.asid, entry.vpn, entry.frame, entry.huge});
    }
  }
  return snapshot;
}

void Tlb::FlushAll() {
  SpinLockGuard guard(lock_);
  ++flushes_;
  for (Entry& entry : entries_) entry.valid = false;
  for (std::size_t slot = 0; slot < live_.size(); ++slot) {
    if (live_[slot] != 0) PublishOccupancy(slot, false);
    live_[slot] = 0;
  }
  live_huge_ = 0;
}

std::uint64_t Tlb::LiveEntries(std::uint64_t asid) {
  SpinLockGuard guard(lock_);
  return LiveLocked(asid);
}

void Tlb::AttachCoreMask(std::atomic<std::uint64_t>* masks, unsigned core) {
  SVAGC_CHECK(core < 64);
  SpinLockGuard guard(lock_);
  SVAGC_CHECK(std::all_of(live_.begin(), live_.end(),
                          [](std::uint32_t n) { return n == 0; }));
  core_masks_ = masks;
  core_bit_ = std::uint64_t{1} << core;
}

std::uint64_t Tlb::LiveHugeEntries() {
  SpinLockGuard guard(lock_);
  return live_huge_;
}

}  // namespace svagc::sim
