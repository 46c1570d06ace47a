// Concurrency stress: SwapVA's split page-table locks and the parallel
// compaction machinery under real thread contention. These run actual
// std::threads hammering shared leaf tables — the locking discipline of
// Algorithm 1 (address-ordered pair locking, same-leaf detection) must hold
// up without deadlock or lost updates.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/svagc_collector.h"
#include "runtime/heap_verifier.h"
#include "simkernel/swapva.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "verify/differential_oracle.h"

namespace svagc {
namespace {

using svagc::testing::SimBundle;

// Many threads swap random disjoint page pairs concurrently. Each page is
// stamped with a unique word; after the storm, the multiset of stamps must
// be intact (swaps permute, never duplicate or lose).
TEST(SwapVaConcurrency, ConcurrentDisjointSwapsPermuteWithoutLoss) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPages = 256;
  constexpr int kSwapsPerThread = 2000;

  SimBundle sim(kThreads);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, kPages * sim::kPageSize);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    as.WriteWord(base + i * sim::kPageSize, 0xBEEF0000 + i);
  }

  // Partition pages among threads so each thread's swaps are disjoint from
  // other threads' (the GC's region discipline); leaf tables are still
  // shared, so the split-PTL locking is contended for real.
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      sim::CpuContext ctx(sim.machine, t);
      sim::SwapVaOptions opts;
      opts.tlb_policy = sim::TlbPolicy::kLocalOnly;
      const std::uint64_t lo = t * (kPages / kThreads);
      const std::uint64_t span = kPages / kThreads;
      for (int i = 0; i < kSwapsPerThread; ++i) {
        const std::uint64_t a = lo + rng.NextBelow(span);
        std::uint64_t b = lo + rng.NextBelow(span);
        if (a == b) b = lo + (b + 1 - lo) % span;
        sim.kernel.SysSwapVa(as, ctx, base + a * sim::kPageSize,
                             base + b * sim::kPageSize, 1, opts);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::multiset<std::uint64_t> stamps;
  for (std::uint64_t i = 0; i < kPages; ++i) {
    stamps.insert(as.ReadWord(base + i * sim::kPageSize));
  }
  for (std::uint64_t i = 0; i < kPages; ++i) {
    EXPECT_EQ(stamps.count(0xBEEF0000 + i), 1u) << i;
  }
  // Within a thread's partition the stamps only permute locally.
  for (unsigned t = 0; t < kThreads; ++t) {
    const std::uint64_t lo = t * (kPages / kThreads);
    for (std::uint64_t i = 0; i < kPages / kThreads; ++i) {
      const std::uint64_t stamp =
          as.ReadWord(base + (lo + i) * sim::kPageSize);
      EXPECT_GE(stamp, 0xBEEF0000 + lo);
      EXPECT_LT(stamp, 0xBEEF0000 + lo + kPages / kThreads);
    }
  }
}

// Threads repeatedly swap ADJACENT page pairs (same leaf table, same
// split-PTL): exercises the ptl1 == ptl2 branch under contention. A lock
// bug here deadlocks the test rather than failing an expectation.
TEST(SwapVaConcurrency, SameLeafContentionDoesNotDeadlock) {
  constexpr unsigned kThreads = 4;
  SimBundle sim(kThreads);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, 64 * sim::kPageSize);

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::CpuContext ctx(sim.machine, t);
      sim::SwapVaOptions opts;
      opts.tlb_policy = sim::TlbPolicy::kLocalOnly;
      // Each thread owns pages [8t, 8t+8) in one shared leaf table.
      const std::uint64_t lo = 8ULL * t;
      for (int i = 0; i < 5000; ++i) {
        sim.kernel.SysSwapVa(as, ctx, base + lo * sim::kPageSize,
                             base + (lo + 1) * sim::kPageSize, 1, opts);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SUCCEED();  // completion is the assertion
}

// Aggregated vectored swaps racing with single swaps over interleaved
// (thread-disjoint) ranges.
TEST(SwapVaConcurrency, VectoredAndSingleCallsInterleave) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThreadPages = 64;
  SimBundle sim(kThreads);
  sim::AddressSpace as(sim.machine, sim.phys);
  const sim::vaddr_t base = 1ULL << 32;
  as.MapRange(base, kThreads * kPerThreadPages * sim::kPageSize);
  for (std::uint64_t i = 0; i < kThreads * kPerThreadPages; ++i) {
    as.WriteWord(base + i * sim::kPageSize, 7000 + i);
  }
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::CpuContext ctx(sim.machine, t);
      sim::SwapVaOptions opts;
      opts.tlb_policy = sim::TlbPolicy::kLocalOnly;
      const sim::vaddr_t lo = base + t * kPerThreadPages * sim::kPageSize;
      for (int round = 0; round < 300; ++round) {
        if (t % 2 == 0) {
          std::vector<sim::SwapRequest> batch;
          for (std::uint64_t k = 0; k < 8; ++k) {
            batch.push_back({lo + 2 * k * 4 * sim::kPageSize,
                             lo + (2 * k + 1) * 4 * sim::kPageSize, 4});
          }
          sim.kernel.SysSwapVaVec(as, ctx, batch, opts);
        } else {
          for (std::uint64_t k = 0; k < 8; ++k) {
            sim.kernel.SysSwapVa(as, ctx, lo + 2 * k * 4 * sim::kPageSize,
                                 lo + (2 * k + 1) * 4 * sim::kPageSize, 4,
                                 opts);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every stamp present exactly once, each within its thread's territory.
  for (unsigned t = 0; t < kThreads; ++t) {
    std::multiset<std::uint64_t> stamps;
    for (std::uint64_t i = 0; i < kPerThreadPages; ++i) {
      stamps.insert(
          as.ReadWord(base + (t * kPerThreadPages + i) * sim::kPageSize));
    }
    for (std::uint64_t i = 0; i < kPerThreadPages; ++i) {
      EXPECT_EQ(stamps.count(7000 + t * kPerThreadPages + i), 1u);
    }
  }
}

// Soak: SVAGC with many GC workers collecting a churning heap dozens of
// times, verified after every collection — the whole stack under repeated
// real-thread parallel phases.
TEST(GcSoak, SvagcSurvivesSustainedChurn) {
  SimBundle sim(16, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 3 << 20;
  config.logical_threads = 4;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(
      std::make_unique<core::SvagcCollector>(sim.machine, 8, 0));

  Rng rng(99);
  constexpr unsigned kSlots = 32;
  const auto root = jvm.roots().Add(jvm.New(1, kSlots, 0));
  std::uint64_t verified_after = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool large = rng.NextBelow(5) == 0;
    const std::uint64_t bytes =
        large ? 10 * sim::kPageSize + 8 * rng.NextBelow(4096)
              : 8 * (1 + rng.NextBelow(128));
    const rt::vaddr_t obj =
        jvm.New(2, 0, bytes, static_cast<unsigned>(rng.NextBelow(4)));
    jvm.View(jvm.roots().Get(root))
        .set_ref(static_cast<std::uint32_t>(rng.NextBelow(kSlots)), obj);
    if (jvm.gc_count() > verified_after) {
      verified_after = jvm.gc_count();
      const rt::VerifyResult verify = rt::VerifyHeap(jvm);
      ASSERT_TRUE(verify.ok) << verify.error << " after GC " << verified_after;
    }
  }
  EXPECT_GT(jvm.gc_count(), 10u);
}

// --- compaction scheduler ----------------------------------------------------

// Drives a deterministic churn (same seed, same allocation sequence) with a
// given GC gang size and returns the final heap digest plus the modeled
// phase totals. GC triggering and the plan are deterministic and independent
// of the gang size (the serial and parallel forwarding walks produce the same
// plan), so between gang sizes only the *scheduling* of region evacuation
// changes: in address order at one GC thread, work stealing above that.
struct ChurnOutcome {
  verify::HeapDigest digest;
  std::uint64_t gc_count = 0;
  rt::GcCycleRecord phase_sum;
  double pause_total = 0;
};

ChurnOutcome RunScheduledChurn(unsigned gc_threads) {
  SimBundle sim(16, 512ULL << 20);
  rt::JvmConfig config;
  config.heap.capacity = 3 << 20;
  config.logical_threads = 4;
  rt::Jvm jvm(sim.machine, sim.phys, sim.kernel, config);
  jvm.set_collector(
      std::make_unique<core::SvagcCollector>(sim.machine, gc_threads, 0));

  Rng rng(412);
  constexpr unsigned kSlots = 32;
  const auto root = jvm.roots().Add(jvm.New(1, kSlots, 0));
  for (int step = 0; step < 3000; ++step) {
    const bool large = rng.NextBelow(5) == 0;
    const std::uint64_t bytes =
        large ? 10 * sim::kPageSize + 8 * rng.NextBelow(4096)
              : 8 * (1 + rng.NextBelow(128));
    const rt::vaddr_t obj =
        jvm.New(2, 0, bytes, static_cast<unsigned>(rng.NextBelow(4)));
    jvm.View(jvm.roots().Get(root))
        .set_ref(static_cast<std::uint32_t>(rng.NextBelow(kSlots)), obj);
  }
  ChurnOutcome outcome;
  outcome.digest = verify::DigestHeap(jvm);
  outcome.gc_count = jvm.gc_count();
  outcome.phase_sum = jvm.collector().log().Sum();
  outcome.pause_total = jvm.collector().log().pauses.total();
  return outcome;
}

// Expects a work-stealing run to leave the byte-identical heap of the
// one-thread, in-address-order compaction: the plan fully determines the
// result, the scheduler only determines who moves what when.
void ExpectMatchesInOrder(const ChurnOutcome& in_order, unsigned gc_threads) {
  const ChurnOutcome steal = RunScheduledChurn(gc_threads);
  EXPECT_GT(steal.gc_count, 10u) << "threads=" << gc_threads;
  EXPECT_EQ(steal.gc_count, in_order.gc_count) << "threads=" << gc_threads;
  const std::string divergence =
      verify::CompareDigests(steal.digest, in_order.digest);
  EXPECT_TRUE(divergence.empty()) << "threads=" << gc_threads << ": "
                                  << divergence;
}

// Work stealing executes regions in a host-dependent order, but the final
// heap image must match the one-thread in-order compaction.
TEST(CompactionScheduler, WorkStealingHeapMatchesInOrderCompaction) {
  const ChurnOutcome in_order = RunScheduledChurn(1);
  for (const unsigned gc_threads : {2u, 8u}) {
    ExpectMatchesInOrder(in_order, gc_threads);
  }
}

// The reported compact cycles for the work-stealing scheduler come from the
// deterministic list-scheduling replay, so two identical runs must agree to
// the last bit — on any host, under any thread interleaving.
TEST(CompactionScheduler, ModeledCyclesAreDeterministicAcrossRuns) {
  const ChurnOutcome a = RunScheduledChurn(8);
  const ChurnOutcome b = RunScheduledChurn(8);
  EXPECT_GT(a.gc_count, 10u);
  EXPECT_EQ(a.gc_count, b.gc_count);
  EXPECT_EQ(a.phase_sum.compact, b.phase_sum.compact);
  EXPECT_EQ(a.phase_sum.Total(), b.phase_sum.Total());
  EXPECT_EQ(a.pause_total, b.pause_total);
}

// A gang bigger than the heap's region count (16 workers, 12 regions) has to
// drain the dependency graph without deadlock or lost regions.
TEST(CompactionScheduler, ExtremeGangSizesDrainTheQueue) {
  ExpectMatchesInOrder(RunScheduledChurn(1), 16);
}

}  // namespace
}  // namespace svagc
