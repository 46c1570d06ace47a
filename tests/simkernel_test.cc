// Unit tests for the simulated kernel below SwapVA: physical memory, the
// 4-level page table, the TLB, the machine/IPI model and the address space.
#include <gtest/gtest.h>

#include <cstring>

#include "simkernel/address_space.h"
#include "simkernel/machine.h"
#include "simkernel/page_table.h"
#include "simkernel/phys_mem.h"
#include "simkernel/tlb.h"
#include "support/rng.h"

namespace svagc::sim {
namespace {

// --- physical memory --------------------------------------------------------

TEST(PhysicalMemory, AllocFreeRoundTrip) {
  PhysicalMemory phys(16 * kPageSize);
  EXPECT_EQ(phys.total_frames(), 16u);
  EXPECT_EQ(phys.free_frames(), 16u);
  const frame_t f = phys.AllocFrame();
  EXPECT_EQ(phys.free_frames(), 15u);
  phys.FreeFrame(f);
  EXPECT_EQ(phys.free_frames(), 16u);
}

TEST(PhysicalMemory, FramesAreDistinctAndWritable) {
  PhysicalMemory phys(8 * kPageSize);
  const frame_t a = phys.AllocFrame();
  const frame_t b = phys.AllocFrame();
  EXPECT_NE(a, b);
  std::memset(phys.FrameData(a), 0xAA, kPageSize);
  std::memset(phys.FrameData(b), 0xBB, kPageSize);
  EXPECT_EQ(static_cast<unsigned char>(*phys.FrameData(a)), 0xAA);
  EXPECT_EQ(static_cast<unsigned char>(*phys.FrameData(b)), 0xBB);
}

TEST(PhysicalMemory, RoundsUpPartialPage) {
  PhysicalMemory phys(kPageSize + 1);
  EXPECT_EQ(phys.total_frames(), 2u);
}

// --- page table -------------------------------------------------------------

TEST(PageTable, MapLookupUnmap) {
  PageTable table;
  EXPECT_FALSE(table.Lookup(42).has_value());
  table.Map(42, 7);
  ASSERT_TRUE(table.Lookup(42).has_value());
  EXPECT_EQ(*table.Lookup(42), 7u);
  EXPECT_EQ(table.mapped_pages(), 1u);
  EXPECT_EQ(table.Unmap(42), 7u);
  EXPECT_FALSE(table.Lookup(42).has_value());
  EXPECT_EQ(table.mapped_pages(), 0u);
}

// Property sweep across level boundaries: vpns whose indices straddle PTE /
// PMD / PUD / P4D / PGD transitions must resolve to independent slots.
class PageTableBoundary : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableBoundary, NeighboursAreIndependent) {
  const std::uint64_t vpn = GetParam();
  PageTable table;
  table.Map(vpn, 100);
  table.Map(vpn + 1, 200);
  EXPECT_EQ(*table.Lookup(vpn), 100u);
  EXPECT_EQ(*table.Lookup(vpn + 1), 200u);
  EXPECT_EQ(table.Unmap(vpn), 100u);
  EXPECT_EQ(*table.Lookup(vpn + 1), 200u);
}

INSTANTIATE_TEST_SUITE_P(
    LevelBoundaries, PageTableBoundary,
    ::testing::Values(511,                     // PTE -> PMD carry
                      (1ULL << 18) - 1,        // PMD -> PUD carry
                      (1ULL << 27) - 1,        // PUD -> P4D carry
                      (1ULL << 36) - 1,        // P4D -> PGD carry
                      0, 12345));

TEST(PageTable, LockedPteAccessChargesWalk) {
  PageTable table;
  table.Map(1000, 3);
  CycleAccount account;
  const CostProfile& cost = ProfileXeonGold6130();
  SpinLock* ptl = nullptr;
  Pte* pte = table.GetPteLocked(1000, &ptl, account, cost, nullptr);
  ASSERT_NE(pte, nullptr);
  EXPECT_TRUE(pte->present());
  EXPECT_EQ(pte->frame(), 3u);
  PageTable::UnlockPte(ptl);
  EXPECT_DOUBLE_EQ(account.ByKind(CostKind::kPageWalk),
                   4 * cost.pagetable_access + cost.pte_access);
  EXPECT_DOUBLE_EQ(account.ByKind(CostKind::kPteLock), cost.pte_lock_pair);
}

TEST(PageTable, PmdCachingSkipsDirectoryWalk) {
  PageTable table;
  for (std::uint64_t i = 0; i < 8; ++i) table.Map(2000 + i, i);
  const CostProfile& cost = ProfileXeonGold6130();
  PmdCache cache;
  CycleAccount account;
  SpinLock* ptl = nullptr;
  // First access fills the cache (pays the walk), the rest hit it.
  for (std::uint64_t i = 0; i < 8; ++i) {
    PageTable::UnlockPte(
        (table.GetPteLocked(2000 + i, &ptl, account, cost, &cache), ptl));
  }
  EXPECT_DOUBLE_EQ(account.ByKind(CostKind::kPageWalk),
                   4 * cost.pagetable_access + 8 * cost.pte_access);
}

TEST(PageTable, PmdCacheInvalidatesAcross2MiBBoundary) {
  PageTable table;
  table.Map(511, 1);
  table.Map(512, 2);  // next leaf table
  const CostProfile& cost = ProfileXeonGold6130();
  PmdCache cache;
  CycleAccount account;
  SpinLock* ptl = nullptr;
  PageTable::UnlockPte((table.GetPteLocked(511, &ptl, account, cost, &cache), ptl));
  PageTable::UnlockPte((table.GetPteLocked(512, &ptl, account, cost, &cache), ptl));
  // Two full walks: the second vpn lives under a different PMD entry.
  EXPECT_DOUBLE_EQ(account.ByKind(CostKind::kPageWalk),
                   2 * (4 * cost.pagetable_access) + 2 * cost.pte_access);
}

TEST(PageTable, HardwareWalkChargesRefill) {
  PageTable table;
  table.Map(5, 9);
  CycleAccount account;
  const CostProfile& cost = ProfileXeonGold6130();
  EXPECT_EQ(*table.HardwareWalk(5, account, cost), 9u);
  EXPECT_DOUBLE_EQ(account.ByKind(CostKind::kTlbRefill), cost.tlb_refill);
}

// --- TLB --------------------------------------------------------------------

TEST(Tlb, MissThenHit) {
  Tlb tlb;
  EXPECT_FALSE(tlb.Lookup(1, 100).hit);
  tlb.Insert(1, 100, 42);
  const auto result = tlb.Lookup(1, 100);
  EXPECT_TRUE(result.hit);
  EXPECT_EQ(result.frame, 42u);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, AsidIsolation) {
  Tlb tlb;
  tlb.Insert(1, 100, 42);
  EXPECT_FALSE(tlb.Lookup(2, 100).hit);
  EXPECT_TRUE(tlb.Lookup(1, 100).hit);
}

TEST(Tlb, FlushAsidOnlyAffectsThatAsid) {
  Tlb tlb;
  tlb.Insert(1, 100, 1);
  tlb.Insert(2, 100, 2);
  tlb.FlushAsid(1);
  EXPECT_FALSE(tlb.Lookup(1, 100).hit);
  EXPECT_TRUE(tlb.Lookup(2, 100).hit);
}

TEST(Tlb, FlushPageIsExact) {
  Tlb tlb;
  tlb.Insert(1, 100, 1);
  tlb.Insert(1, 101, 2);
  tlb.FlushPage(1, 100);
  EXPECT_FALSE(tlb.Lookup(1, 100).hit);
  EXPECT_TRUE(tlb.Lookup(1, 101).hit);
}

TEST(Tlb, LruEvictionWithinSet) {
  Tlb tlb(/*entries=*/4, /*ways=*/4);  // one set
  for (std::uint64_t vpn = 0; vpn < 4; ++vpn) tlb.Insert(1, vpn * 7, vpn);
  EXPECT_TRUE(tlb.Lookup(1, 0).hit);  // refresh vpn 0
  tlb.Insert(1, 777, 99);             // evicts LRU, which is vpn 7
  EXPECT_TRUE(tlb.Lookup(1, 0).hit);
  EXPECT_FALSE(tlb.Lookup(1, 7).hit);
}

TEST(Tlb, InsertRefreshesDuplicate) {
  Tlb tlb;
  tlb.Insert(1, 5, 10);
  tlb.Insert(1, 5, 20);
  EXPECT_EQ(tlb.Lookup(1, 5).frame, 20u);
}

// The per-ASID and huge-entry counts behind the flush/lookup shortcuts must
// track the array exactly through replacement, every flush kind and huge
// entries, and the shortcuts must not change what a lookup returns. The
// TLB is small so inserts keep evicting; two ASIDs lie beyond the dense
// range and share one count.
TEST(TlbOccupancy, CountsMatchBruteForceOverRandomOps) {
  Tlb tlb(/*entries=*/64, /*ways=*/4);
  const std::uint64_t asids[] = {1, 2, 3, 7, Tlb::kDenseAsids + 5,
                                 (1ULL << 63) | 1};
  const auto sparse = [](std::uint64_t asid) {
    return asid >= Tlb::kDenseAsids;
  };
  Rng rng(14);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t asid = asids[rng.NextBelow(std::size(asids))];
    // 32 pages in each of 4 huge units: small enough that flushes and
    // lookups often find an entry.
    const std::uint64_t vpn =
        rng.NextBelow(4) * kPagesPerHuge + rng.NextBelow(32);
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 55) {
      tlb.Insert(asid, vpn, vpn + 1000);
    } else if (op < 65) {
      tlb.InsertHuge(asid, vpn & ~kIndexMask, (vpn & ~kIndexMask) + 5000);
    } else if (op < 85) {
      tlb.FlushPage(asid, vpn);
    } else if (op < 97) {
      tlb.FlushAsid(asid);
    } else if (op < 98) {
      tlb.FlushAll();
    } else {
      // Lookup against the snapshot taken just before it.
      bool expect_hit = false;
      for (const TlbSnapshotEntry& e : tlb.SnapshotValidEntries()) {
        expect_hit |= e.asid == asid &&
                      (e.huge ? e.vpn == (vpn & ~kIndexMask) : e.vpn == vpn);
      }
      ASSERT_EQ(tlb.Lookup(asid, vpn).hit, expect_hit) << "step " << step;
    }

    const std::vector<TlbSnapshotEntry> snapshot = tlb.SnapshotValidEntries();
    std::uint64_t huge = 0;
    for (const TlbSnapshotEntry& e : snapshot) huge += e.huge ? 1 : 0;
    ASSERT_EQ(tlb.LiveHugeEntries(), huge) << "step " << step;
    for (const std::uint64_t a : asids) {
      std::uint64_t live = 0;
      for (const TlbSnapshotEntry& e : snapshot) {
        live += (sparse(a) ? sparse(e.asid) : e.asid == a) ? 1 : 0;
      }
      ASSERT_EQ(tlb.LiveEntries(a), live) << "asid " << a << " step " << step;
    }
  }
  EXPECT_GT(tlb.hits(), 0u);
  EXPECT_GT(tlb.misses(), 0u);
}

TEST(TlbOccupancy, CoreMaskMatchesLiveEntriesOverRandomOps) {
  // Every op, whether on one core's TLB or machine-wide, must leave each
  // core's bit for each dense ASID equal to "that TLB holds an entry of the
  // ASID"; sparse ASIDs share a count and have no bit. Small TLBs keep
  // victim replacement (an invalidation the op did not ask for) frequent.
  Machine machine(4, ProfileXeonGold6130());
  const std::uint64_t dense[] = {0, 1, 2, 7, Tlb::kDenseAsids - 1};
  const std::uint64_t asids[] = {0, 1, 2, 7, Tlb::kDenseAsids - 1,
                                 Tlb::kDenseAsids + 5, (1ULL << 63) | 1};
  ASSERT_TRUE(machine.TracksTlbHolders(Tlb::kDenseAsids - 1));
  ASSERT_FALSE(machine.TracksTlbHolders(Tlb::kDenseAsids));
  std::uint64_t held_steps = 0;
  Rng rng(16);
  for (int step = 0; step < 20000; ++step) {
    const unsigned core = static_cast<unsigned>(rng.NextBelow(4));
    Tlb& tlb = machine.tlb(core);
    CpuContext ctx(machine, core);
    const std::uint64_t asid = asids[rng.NextBelow(std::size(asids))];
    const std::uint64_t vpn =
        rng.NextBelow(4) * kPagesPerHuge + rng.NextBelow(64);
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 55) {
      tlb.Insert(asid, vpn, vpn + 1000);
    } else if (op < 62) {
      tlb.InsertHuge(asid, vpn & ~kIndexMask, (vpn & ~kIndexMask) + 5000);
    } else if (op < 75) {
      tlb.FlushPage(asid, vpn);
    } else if (op < 90) {
      machine.FlushPageAllCores(ctx, asid, vpn);
      // Visiting only the holders still leaves no core translating vpn.
      for (unsigned c = 0; c < machine.num_cores(); ++c) {
        for (const TlbSnapshotEntry& e : machine.tlb(c).SnapshotValidEntries()) {
          ASSERT_FALSE(e.asid == asid &&
                       (e.huge ? e.vpn == (vpn & ~kIndexMask) : e.vpn == vpn))
              << "core " << c << " step " << step;
        }
      }
    } else if (op < 95) {
      tlb.FlushAsid(asid);
    } else if (op < 98) {
      machine.SendTlbShootdown(ctx, asid);
    } else {
      tlb.FlushAll();
    }

    for (const std::uint64_t a : dense) {
      const std::uint64_t holders = machine.TlbHolders(a);
      for (unsigned c = 0; c < machine.num_cores(); ++c) {
        ASSERT_EQ((holders >> c) & 1, machine.tlb(c).LiveEntries(a) > 0 ? 1u : 0u)
            << "asid " << a << " core " << c << " step " << step;
      }
      ASSERT_EQ(holders >> machine.num_cores(), 0u);
      held_steps += holders != 0 ? 1 : 0;
    }
  }
  EXPECT_GT(held_steps, 0u);
}

TEST(TlbOccupancy, PageFlushChargesEveryCoreWhateverItVisits) {
  // The charge and the tally count all cores, held entries or not; a
  // machine wider than the mask visits every core and still drops the page.
  for (const unsigned cores : {4u, 65u}) {
    Machine machine(cores, ProfileXeonGold6130());
    EXPECT_EQ(machine.TracksTlbHolders(3), cores <= 64) << cores;
    machine.tlb(1).Insert(3, 40, 7);
    machine.tlb(cores - 1).Insert(3, 40, 7);
    CpuContext ctx(machine, 0);
    machine.FlushPageAllCores(ctx, 3, 40);
    EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kTlbFlushPage),
                     machine.cost().tlb_flush_page * cores);
    EXPECT_EQ(machine.metrics().counter("tlb.page_flushes").value(),
              telemetry::kEnabled ? cores : 0u);
    EXPECT_EQ(machine.tlb(1).LiveEntries(3), 0u);
    EXPECT_EQ(machine.tlb(cores - 1).LiveEntries(3), 0u);
    if (machine.TracksTlbHolders(3)) {
      EXPECT_EQ(machine.TlbHolders(3), 0u);
    }
  }
}

// --- machine ----------------------------------------------------------------

TEST(Machine, ShootdownChargesSenderAndDisturbsOthers) {
  Machine machine(4, ProfileXeonGold6130());
  CpuContext ctx(machine, 1);
  machine.tlb(0).Insert(9, 1, 1);
  machine.tlb(2).Insert(9, 1, 1);
  machine.SendTlbShootdown(ctx, /*asid=*/9);
  EXPECT_EQ(machine.TotalIpisSent(), 3u);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kIpi),
                   3 * machine.cost().ipi_send);
  EXPECT_EQ(machine.DisturbanceCycles(1), 0u);  // sender undisturbed
  EXPECT_GT(machine.DisturbanceCycles(0), 0u);
  // Remote TLBs flushed for the asid.
  EXPECT_FALSE(machine.tlb(0).Lookup(9, 1).hit);
  EXPECT_FALSE(machine.tlb(2).Lookup(9, 1).hit);
}

TEST(Machine, ContentionFactorSublinear) {
  Machine machine(4, ProfileXeonGold6130());
  EXPECT_DOUBLE_EQ(machine.BandwidthContentionFactor(), 1.0);
  machine.SetActiveMemoryStreams(4);
  EXPECT_DOUBLE_EQ(machine.BandwidthContentionFactor(), 1.0);
  machine.SetActiveMemoryStreams(32);
  const double f32 = machine.BandwidthContentionFactor();
  EXPECT_GT(f32, 1.0);
  EXPECT_LT(f32, 8.0);  // sublinear in 32/4
  EXPECT_NEAR(f32, std::pow(8.0, 0.75), 1e-9);
}

TEST(Machine, AsidsAreUnique) {
  Machine machine(1, ProfileXeonGold6130());
  const auto a = machine.NextAsid();
  const auto b = machine.NextAsid();
  EXPECT_NE(a, b);
}

// --- address space ----------------------------------------------------------

class AddressSpaceTest : public ::testing::Test {
 protected:
  static constexpr vaddr_t kBase = 1ULL << 32;
  Machine machine_{2, ProfileXeonGold6130()};
  PhysicalMemory phys_{512 * kPageSize};
  AddressSpace as_{machine_, phys_};
};

TEST_F(AddressSpaceTest, MapUnmapReleasesFrames) {
  const auto before = phys_.free_frames();
  as_.MapRange(kBase, 16 * kPageSize);
  EXPECT_EQ(phys_.free_frames(), before - 16);
  EXPECT_TRUE(as_.IsMapped(kBase));
  EXPECT_TRUE(as_.IsMapped(kBase + 15 * kPageSize));
  EXPECT_FALSE(as_.IsMapped(kBase + 16 * kPageSize));
  as_.UnmapRange(kBase, 16 * kPageSize);
  EXPECT_EQ(phys_.free_frames(), before);
}

TEST_F(AddressSpaceTest, WordRoundTrip) {
  as_.MapRange(kBase, 4 * kPageSize);
  as_.WriteWord(kBase + 8, 0xDEADBEEFULL);
  EXPECT_EQ(as_.ReadWord(kBase + 8), 0xDEADBEEFULL);
  // Last word of a page and first of the next are independent.
  as_.WriteWord(kBase + kPageSize - 8, 1);
  as_.WriteWord(kBase + kPageSize, 2);
  EXPECT_EQ(as_.ReadWord(kBase + kPageSize - 8), 1u);
  EXPECT_EQ(as_.ReadWord(kBase + kPageSize), 2u);
  as_.UnmapRange(kBase, 4 * kPageSize);
}

TEST_F(AddressSpaceTest, HwPtrCountsTlbTraffic) {
  as_.MapRange(kBase, 2 * kPageSize);
  CpuContext ctx(machine_, 0);
  (void)as_.HwPtr(ctx, kBase);        // miss + refill
  (void)as_.HwPtr(ctx, kBase + 64);   // hit (same page)
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kTlbRefill),
                   machine_.cost().tlb_refill);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kTlbHit),
                   machine_.cost().tlb_hit);
  as_.UnmapRange(kBase, 2 * kPageSize);
}

// Property test: CopyBytes must behave exactly like std::memmove for any
// combination of (possibly overlapping, page-straddling) ranges.
TEST_F(AddressSpaceTest, CopyBytesMatchesMemmoveReference) {
  constexpr std::uint64_t kSpan = 8 * kPageSize;
  as_.MapRange(kBase, kSpan);
  CpuContext ctx(machine_, 0);
  Rng rng(99);
  std::vector<unsigned char> reference(kSpan);

  for (int trial = 0; trial < 200; ++trial) {
    for (std::uint64_t i = 0; i < kSpan; i += 8) {
      const std::uint64_t word = rng.NextU64();
      as_.WriteWord(kBase + i, word);
      std::memcpy(&reference[i], &word, 8);
    }
    const std::uint64_t bytes = rng.NextInRange(1, kSpan / 2);
    const std::uint64_t src = rng.NextBelow(kSpan - bytes);
    const std::uint64_t dst = rng.NextBelow(kSpan - bytes);
    as_.CopyBytes(ctx, kBase + dst, kBase + src, bytes);
    std::memmove(reference.data() + dst, reference.data() + src, bytes);
    for (std::uint64_t i = 0; i < kSpan; i += 8) {
      std::uint64_t expected;
      std::memcpy(&expected, &reference[i], 8);
      ASSERT_EQ(as_.ReadWord(kBase + i), expected)
          << "trial " << trial << " offset " << i << " src " << src << " dst "
          << dst << " bytes " << bytes;
    }
  }
  as_.UnmapRange(kBase, kSpan);
}

TEST_F(AddressSpaceTest, CopyChargesByLocality) {
  as_.MapRange(kBase, 64 * kPageSize);
  const std::uint64_t bytes = 32 * kPageSize;
  CpuContext cold(machine_, 0), hot(machine_, 0);
  as_.CopyBytes(cold, kBase, kBase + bytes, bytes,
                AddressSpace::CopyLocality::kCold);
  as_.CopyBytes(hot, kBase, kBase + bytes, bytes,
                AddressSpace::CopyLocality::kHot);
  EXPECT_DOUBLE_EQ(cold.account.ByKind(CostKind::kCopy),
                   bytes * machine_.cost().copy_per_byte_dram);
  EXPECT_DOUBLE_EQ(hot.account.ByKind(CostKind::kCopy),
                   bytes * machine_.cost().copy_per_byte_cached);
  as_.UnmapRange(kBase, 64 * kPageSize);
}

TEST_F(AddressSpaceTest, ZeroBytesZeroes) {
  as_.MapRange(kBase, 4 * kPageSize);
  CpuContext ctx(machine_, 0);
  for (std::uint64_t i = 0; i < 4 * kPageSize; i += 8) {
    as_.WriteWord(kBase + i, ~0ULL);
  }
  as_.ZeroBytes(ctx, kBase + 100 * 8, 2 * kPageSize);
  EXPECT_EQ(as_.ReadWord(kBase + 99 * 8), ~0ULL);
  EXPECT_EQ(as_.ReadWord(kBase + 100 * 8), 0u);
  EXPECT_EQ(as_.ReadWord(kBase + 100 * 8 + 2 * kPageSize - 8), 0u);
  EXPECT_EQ(as_.ReadWord(kBase + 100 * 8 + 2 * kPageSize), ~0ULL);
  EXPECT_GT(ctx.account.ByKind(CostKind::kAlloc), 0.0);
  as_.UnmapRange(kBase, 4 * kPageSize);
}

TEST_F(AddressSpaceTest, StreamTouchProbesEveryPage) {
  as_.MapRange(kBase, 8 * kPageSize);
  CpuContext ctx(machine_, 0);
  as_.StreamTouch(ctx, kBase + 16, 4 * kPageSize, 0.5, false);
  // 5 pages touched (straddles), all cold -> 5 refills.
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kTlbRefill),
                   5 * machine_.cost().tlb_refill);
  EXPECT_DOUBLE_EQ(ctx.account.ByKind(CostKind::kCompute),
                   0.5 * 4 * kPageSize);
  as_.UnmapRange(kBase, 8 * kPageSize);
}

// --- cost model -------------------------------------------------------------

TEST(CostModel, AccountMergeAndReset) {
  CycleAccount a, b;
  a.Charge(CostKind::kCopy, 10);
  b.Charge(CostKind::kCopy, 5);
  b.Charge(CostKind::kIpi, 7);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.total(), 22);
  EXPECT_DOUBLE_EQ(a.ByKind(CostKind::kCopy), 15);
  EXPECT_DOUBLE_EQ(a.ByKind(CostKind::kIpi), 7);
  a.Reset();
  EXPECT_DOUBLE_EQ(a.total(), 0);
}

TEST(CostModel, ProfilesAreDistinctAndNamed) {
  EXPECT_EQ(ProfileXeonGold6130().name, "XeonGold6130");
  EXPECT_EQ(ProfileXeonGold6240().name, "XeonGold6240");
  EXPECT_EQ(ProfileCorei5_7600().name, "Corei5_7600");
  // The desktop part has the smallest LLC and worst DRAM copy rate.
  EXPECT_LT(ProfileCorei5_7600().llc_bytes, ProfileXeonGold6130().llc_bytes);
  EXPECT_GT(ProfileCorei5_7600().copy_per_byte_dram,
            ProfileXeonGold6130().copy_per_byte_dram);
}

TEST(CostModel, CopyCostPiecewise) {
  const CostProfile& p = ProfileXeonGold6130();
  EXPECT_DOUBLE_EQ(p.CopyCyclesPerByte(1024), p.copy_per_byte_cached);
  EXPECT_DOUBLE_EQ(p.CopyCyclesPerByte(1ULL << 30), p.copy_per_byte_dram);
}

TEST(CostModel, EveryKindHasAName) {
  for (unsigned i = 0; i < kNumCostKinds; ++i) {
    EXPECT_STRNE(CostKindName(static_cast<CostKind>(i)), "?");
  }
}

}  // namespace
}  // namespace svagc::sim
