// Known-zero frames (phys_mem.h): ZeroBytes skips the memset on a frame
// whose bit says it is already zero, so every path that can write nonzero
// bytes into a frame must clear that bit. Each case zeroes a page (the
// frame becomes known zero), dirties it through one write path, and checks
// that a later ZeroBytes really zeroes it. Every case runs on both
// translation backends with half the pages in the far tier, so frames also
// pass through far-tier slots by eviction and swap-in. At the end of each
// case every frame whose bit is set must hold only zero bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "runtime/heap_snapshot.h"
#include "runtime/jvm.h"
#include "simkernel/swapva.h"
#include "support/align.h"

namespace svagc {
namespace {

using sim::kPageShift;
using sim::kPageSize;
using sim::TranslationBackend;

constexpr std::uint64_t kHeapPages = 64;
constexpr std::uint64_t kScratchPages = 16;
constexpr sim::vaddr_t kScratch = 1ULL << 40;

// A Jvm (for the heap snapshot path) plus a scratch range in the same
// address space, with the far tier holding half of all mapped pages.
struct ZeroRig {
  sim::Machine machine;
  sim::Kernel kernel;
  sim::PhysicalMemory phys;
  rt::Jvm jvm;
  sim::AddressSpace& as;
  sim::CpuContext ctx;

  explicit ZeroRig(TranslationBackend backend)
      : machine(2, sim::ProfileXeonGold6130(), backend),
        kernel(machine),
        phys((kHeapPages + kScratchPages + 8) << kPageShift),
        jvm(machine, phys, kernel, Config()),
        as(jvm.address_space()),
        ctx(machine, 0) {
    as.MapRange(kScratch, kScratchPages << kPageShift);
    sim::FarTierConfig tier;
    tier.resident_limit_pages = (kHeapPages + kScratchPages) / 2;
    as.EnableFarTier(kernel, ctx, tier);
  }

  static rt::JvmConfig Config() {
    rt::JvmConfig config;
    config.heap.capacity = kHeapPages << kPageShift;
    config.tlab_bytes = 8 * kPageSize;
    return config;
  }

  static sim::vaddr_t Page(std::uint64_t i) {
    return kScratch + (i << kPageShift);
  }

  // Zeroes the page at `vaddr`; afterwards it is resident and known zero.
  void ZeroPage(sim::vaddr_t vaddr) {
    as.ZeroBytes(ctx, vaddr, kPageSize);
    const auto frame = as.translation().Lookup(vaddr >> kPageShift);
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(phys.known_zero(*frame));
  }

  bool PageIsZero(sim::vaddr_t vaddr) const {
    for (std::uint64_t off = 0; off < kPageSize; off += 8) {
      if (as.ReadWord(vaddr + off) != 0) return false;
    }
    return true;
  }

  // ZeroBytes over a dirtied page must leave it all-zero.
  void ExpectZeroBytesClears(sim::vaddr_t vaddr) {
    ASSERT_FALSE(PageIsZero(vaddr)) << "the case did not dirty the page";
    as.ZeroBytes(ctx, vaddr, kPageSize);
    EXPECT_TRUE(PageIsZero(vaddr));
  }

  void ExpectKnownZeroFramesAreZero() const {
    for (sim::frame_t f = 0; f < phys.total_frames(); ++f) {
      if (!phys.known_zero(f)) continue;
      const std::byte* data = phys.FrameData(f);
      EXPECT_TRUE(std::all_of(data, data + kPageSize,
                              [](std::byte b) { return b == std::byte{0}; }))
          << "frame " << f << " is marked known zero but holds data";
    }
  }
};

class KnownZeroFrames : public ::testing::TestWithParam<TranslationBackend> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, KnownZeroFrames,
    ::testing::Values(TranslationBackend::kRadix, TranslationBackend::kHashed),
    [](const ::testing::TestParamInfo<TranslationBackend>& info) {
      return std::string(sim::TranslationBackendName(info.param));
    });

TEST_P(KnownZeroFrames, WriteWordClearsTheBit) {
  ZeroRig rig(GetParam());
  rig.ZeroPage(ZeroRig::Page(0));
  rig.as.WriteWord(ZeroRig::Page(0) + 64, 0);  // a zero write keeps the bit
  rig.as.WriteWord(ZeroRig::Page(0) + 128, 0x5A5A);
  rig.ExpectZeroBytesClears(ZeroRig::Page(0));
  rig.ExpectKnownZeroFramesAreZero();
}

TEST_P(KnownZeroFrames, WriteWordHwClearsTheBit) {
  ZeroRig rig(GetParam());
  rig.ZeroPage(ZeroRig::Page(9));
  rig.as.WriteWordHw(rig.ctx, ZeroRig::Page(9) + kPageSize - 8, ~0ULL);
  rig.ExpectZeroBytesClears(ZeroRig::Page(9));
  rig.ExpectKnownZeroFramesAreZero();
}

TEST_P(KnownZeroFrames, CopyBytesDestinationClearsTheBit) {
  ZeroRig rig(GetParam());
  const sim::vaddr_t src = ZeroRig::Page(2);
  for (std::uint64_t off = 0; off < 256; off += 8) {
    rig.as.WriteWord(src + off, 0x1000 + off);
  }
  // Destinations below and above the source: CopyBytes walks forward for
  // the first and backward (memmove order) for the second.
  for (const sim::vaddr_t dst : {ZeroRig::Page(1), ZeroRig::Page(3)}) {
    rig.ZeroPage(dst);
    rig.as.CopyBytes(rig.ctx, dst + 512, src, 256);
    rig.ExpectZeroBytesClears(dst);
  }
  rig.ExpectKnownZeroFramesAreZero();
}

TEST_P(KnownZeroFrames, ReallocatedFrameIsNotKnownZero) {
  ZeroRig rig(GetParam());
  const sim::vaddr_t page = ZeroRig::Page(4);
  rig.ZeroPage(page);
  const sim::frame_t frame = *rig.as.translation().Lookup(page >> kPageShift);
  // The freed frame keeps its bit; whoever allocates it next gets it clear
  // and may write through FrameData without further bookkeeping.
  rig.as.UnmapRange(page, kPageSize);
  rig.as.MapRange(page, kPageSize);
  ASSERT_EQ(*rig.as.translation().Lookup(page >> kPageShift), frame);
  EXPECT_FALSE(rig.phys.known_zero(frame));
  std::memset(rig.phys.FrameData(frame), 0xAB, kPageSize);
  rig.ExpectZeroBytesClears(page);
  rig.ExpectKnownZeroFramesAreZero();
}

TEST_P(KnownZeroFrames, SwappedPagesComeBackInTheirOwnFrameWithTheirBit) {
  ZeroRig rig(GetParam());
  sim::FarTier& tier = *rig.as.far_tier();
  const sim::vaddr_t data_page = ZeroRig::Page(5);
  const sim::vaddr_t zero_page = ZeroRig::Page(6);
  rig.as.EnsureResident(rig.ctx, data_page, kPageSize);
  rig.as.WriteWord(data_page + 8, 0xD00D);
  rig.ZeroPage(zero_page);
  const sim::Translation& table = rig.as.translation();
  const sim::frame_t data_frame = *table.Lookup(data_page >> kPageShift);
  const sim::frame_t zero_frame = *table.Lookup(zero_page >> kPageShift);
  // Eviction hands each page's frame to its slot, bit and all.
  ASSERT_TRUE(tier.SwapOut(rig.ctx, data_page >> kPageShift, nullptr));
  ASSERT_TRUE(tier.SwapOut(rig.ctx, zero_page >> kPageShift, nullptr));
  const sim::Pte zero_pte = table.LookupPte(zero_page >> kPageShift);
  ASSERT_TRUE(zero_pte.swapped());
  EXPECT_EQ(tier.SlotFrame(zero_pte.swap_slot()), zero_frame);
  EXPECT_TRUE(rig.phys.known_zero(zero_frame));
  // Swap-in hands the same frame back: the zeroed page is still known zero
  // (its next ZeroBytes is skipped), the data page keeps its bytes and a
  // clear bit.
  rig.as.EnsureResident(rig.ctx, zero_page, kPageSize);
  rig.as.EnsureResident(rig.ctx, data_page, kPageSize);
  ASSERT_EQ(*table.Lookup(zero_page >> kPageShift), zero_frame);
  ASSERT_EQ(*table.Lookup(data_page >> kPageShift), data_frame);
  EXPECT_TRUE(rig.phys.known_zero(zero_frame));
  EXPECT_TRUE(rig.PageIsZero(zero_page));
  EXPECT_FALSE(rig.phys.known_zero(data_frame));
  EXPECT_EQ(rig.as.ReadWord(data_page + 8), 0xD00Du);
  rig.ExpectZeroBytesClears(data_page);
  rig.ExpectKnownZeroFramesAreZero();
}

TEST_P(KnownZeroFrames, RawWriteToASwappedPageClearsTheSlotFramesBit) {
  ZeroRig rig(GetParam());
  sim::FarTier& tier = *rig.as.far_tier();
  const sim::vaddr_t page = ZeroRig::Page(10);
  rig.ZeroPage(page);
  ASSERT_TRUE(tier.SwapOut(rig.ctx, page >> kPageShift, nullptr));
  const sim::Pte pte = rig.as.translation().LookupPte(page >> kPageShift);
  ASSERT_TRUE(pte.swapped());
  const sim::frame_t frame = tier.SlotFrame(pte.swap_slot());
  ASSERT_TRUE(rig.phys.known_zero(frame));
  // The uncosted raw path reaches the slot's frame directly, as RestoreHeap
  // does: copy in, then report the write.
  const std::uint64_t value = 0xFACE;
  std::byte* dst = rig.as.RawPtr(page + 512);
  EXPECT_EQ(dst, rig.phys.FrameData(frame) + 512);
  std::memcpy(dst, &value, sizeof(value));
  rig.phys.NoteWrite(dst);
  EXPECT_FALSE(rig.phys.known_zero(frame));
  EXPECT_TRUE(rig.as.translation().LookupPte(page >> kPageShift).swapped());
  rig.ExpectKnownZeroFramesAreZero();
  // Faulted back in, the page holds the raw write and zeroes for real.
  rig.as.EnsureResident(rig.ctx, page, kPageSize);
  EXPECT_EQ(rig.as.ReadWord(page + 512), value);
  rig.ExpectZeroBytesClears(page);
  rig.ExpectKnownZeroFramesAreZero();
}

TEST_P(KnownZeroFrames, RestoreHeapClearsTheBit) {
  ZeroRig rig(GetParam());
  const sim::vaddr_t obj = rig.jvm.New(/*type_id=*/1, /*num_refs=*/0,
                                       /*data_bytes=*/3 * kPageSize);
  rt::ObjectView view = rig.jvm.View(obj);
  // A page lying wholly inside the object's payload.
  const sim::vaddr_t page = AlignUp(view.data_base(), kPageSize);
  const std::uint64_t word = (page + 256 - view.data_base()) / 8;
  view.set_data_word(word, 0xFEED);
  const rt::HeapSnapshot snapshot = rt::SnapshotHeap(rig.jvm);
  rig.ZeroPage(page);
  rt::RestoreHeap(rig.jvm, snapshot);
  EXPECT_EQ(view.data_word(word), 0xFEEDu);
  rig.ExpectZeroBytesClears(page);
  rig.ExpectKnownZeroFramesAreZero();
}

TEST_P(KnownZeroFrames, PartialZeroOfADirtyFrameKeepsTheBitClear) {
  ZeroRig rig(GetParam());
  const sim::vaddr_t page = ZeroRig::Page(7);
  rig.as.WriteWord(page + 8, 1);
  rig.as.WriteWord(page + 2048, 2);
  rig.as.ZeroBytes(rig.ctx, page, 1024);
  const sim::frame_t frame = *rig.as.translation().Lookup(page >> kPageShift);
  EXPECT_FALSE(rig.phys.known_zero(frame));
  EXPECT_EQ(rig.as.ReadWord(page + 8), 0u);
  EXPECT_EQ(rig.as.ReadWord(page + 2048), 2u);
  rig.ExpectZeroBytesClears(page);
  rig.ExpectKnownZeroFramesAreZero();
}

TEST_P(KnownZeroFrames, SkippedZeroingChargesAndCountsTheSame) {
  ZeroRig rig(GetParam());
  const sim::vaddr_t page = ZeroRig::Page(8);
  rig.ZeroPage(page);  // resident from here on
  rig.as.WriteWord(page, 1);
  // One zeroing of the dirty page (a real memset), then one of the same
  // page once it is known zero (skipped): both charge and count the same.
  double charged[2];
  std::uint64_t written[2];
  for (int i = 0; i < 2; ++i) {
    const double cycles = rig.ctx.account.total();
    const std::uint64_t bytes = rig.phys.bytes_written();
    rig.as.ZeroBytes(rig.ctx, page, kPageSize);
    charged[i] = rig.ctx.account.total() - cycles;
    written[i] = rig.phys.bytes_written() - bytes;
  }
  EXPECT_GT(charged[0], 0.0);
  EXPECT_EQ(charged[1], charged[0]);
  EXPECT_EQ(written[0], kPageSize);
  EXPECT_EQ(written[1], kPageSize);
  EXPECT_TRUE(rig.PageIsZero(page));
  rig.ExpectKnownZeroFramesAreZero();
}

}  // namespace
}  // namespace svagc
