// Unit tests for the support layer: alignment math, RNG, spinlock,
// statistics, work-stealing deque, worker gang, table printer.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "support/align.h"
#include "support/rng.h"
#include "support/spin_lock.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/worker_gang.h"
#include "support/ws_deque.h"

namespace svagc {
namespace {

// --- alignment --------------------------------------------------------------

TEST(Align, PowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(4097));
}

class AlignSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignSweep, UpDownInvariants) {
  const std::uint64_t alignment = GetParam();
  for (std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, alignment - 1, alignment,
        alignment + 1, 3 * alignment - 1, std::uint64_t{1} << 40}) {
    const std::uint64_t up = AlignUp(value, alignment);
    const std::uint64_t down = AlignDown(value, alignment);
    EXPECT_TRUE(IsAligned(up, alignment));
    EXPECT_TRUE(IsAligned(down, alignment));
    EXPECT_GE(up, value);
    EXPECT_LE(down, value);
    EXPECT_LT(up - value, alignment);
    EXPECT_LT(value - down, alignment);
  }
}

INSTANTIATE_TEST_SUITE_P(Alignments, AlignSweep,
                         ::testing::Values(8, 64, 4096, 1 << 20));

TEST(Align, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 7), 0u);
  EXPECT_EQ(CeilDiv(1, 7), 1u);
  EXPECT_EQ(CeilDiv(7, 7), 1u);
  EXPECT_EQ(CeilDiv(8, 7), 2u);
}

// --- RNG --------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 4096ULL}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(Rng, InRangeInclusive) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.NextInRange(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    hit_lo |= (v == 3);
    hit_hi |= (v == 6);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // uniform mean
}

// --- spinlock ---------------------------------------------------------------

TEST(SpinLock, MutualExclusion) {
  SpinLock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        SpinLockGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 4 * 20000);
}

TEST(SpinLock, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// --- statistics -------------------------------------------------------------

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(Summary, MergeEqualsSequential) {
  Summary all, left, right;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 100;
    all.Add(x);
    (i < 500 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, MergeIntoEmpty) {
  Summary a, b;
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(LatencyRecorder, Percentiles) {
  LatencyRecorder recorder;
  for (std::uint64_t i = 1; i <= 100; ++i) recorder.Record(i);
  EXPECT_EQ(recorder.count(), 100u);
  EXPECT_DOUBLE_EQ(recorder.max(), 100.0);
  EXPECT_NEAR(recorder.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(recorder.Percentile(99), 99.01, 0.1);
  EXPECT_DOUBLE_EQ(recorder.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(recorder.Percentile(100), 100.0);
}

TEST(LatencyRecorder, Empty) {
  LatencyRecorder recorder;
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_DOUBLE_EQ(recorder.Percentile(50), 0.0);
}

TEST(GeoMean, MatchesClosedForm) {
  GeoMean gm;
  gm.Add(2.0);
  gm.Add(8.0);
  EXPECT_NEAR(gm.Value(), 4.0, 1e-9);
  GeoMean empty;
  EXPECT_DOUBLE_EQ(empty.Value(), 0.0);
}

// --- table printer ----------------------------------------------------------

TEST(TablePrinter, FormatHelper) {
  EXPECT_EQ(Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Format("%.2f", 1.005), "1.00");
}

TEST(TablePrinter, PrintsAllRows) {
  TablePrinter table({"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  char buffer[4096] = {};
  std::FILE* stream = fmemopen(buffer, sizeof buffer, "w");
  table.Print(stream);
  std::fclose(stream);
  const std::string out = buffer;
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

// --- work-stealing deque ----------------------------------------------------

TEST(WorkStealingDeque, LifoOwnerOrder) {
  WorkStealingDeque<int> deque;
  deque.Push(1);
  deque.Push(2);
  deque.Push(3);
  EXPECT_EQ(deque.Pop(), 3);
  EXPECT_EQ(deque.Pop(), 2);
  EXPECT_EQ(deque.Pop(), 1);
  EXPECT_EQ(deque.Pop(), std::nullopt);
}

TEST(WorkStealingDeque, StealFifoOrder) {
  WorkStealingDeque<int> deque;
  deque.Push(1);
  deque.Push(2);
  EXPECT_EQ(deque.Steal(), 1);
  EXPECT_EQ(deque.Steal(), 2);
  EXPECT_EQ(deque.Steal(), std::nullopt);
}

TEST(WorkStealingDeque, OverflowSpill) {
  WorkStealingDeque<int> deque(8);
  for (int i = 0; i < 100; ++i) deque.Push(i);
  std::set<int> seen;
  while (auto v = deque.Pop()) seen.insert(*v);
  EXPECT_EQ(seen.size(), 100u);
}

TEST(WorkStealingDeque, ConcurrentStealersLoseNothing) {
  WorkStealingDeque<int> deque(1 << 10);
  constexpr int kItems = 50000;
  std::atomic<std::int64_t> stolen_sum{0};
  std::atomic<std::int64_t> popped_sum{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      std::int64_t local = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = deque.Steal()) local += *v;
      }
      // Drain stragglers.
      while (auto v = deque.Steal()) local += *v;
      stolen_sum.fetch_add(local);
    });
  }
  std::int64_t pushed_sum = 0;
  for (int i = 1; i <= kItems; ++i) {
    deque.Push(i);
    pushed_sum += i;
    if (i % 3 == 0) {
      if (auto v = deque.Pop()) popped_sum.fetch_add(*v);
    }
  }
  while (auto v = deque.Pop()) popped_sum.fetch_add(*v);
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();
  EXPECT_EQ(stolen_sum.load() + popped_sum.load(), pushed_sum);
}

TEST(WorkStealingDeque, StressEveryItemTakenExactlyOnce) {
  // A small ring so indices wrap many times and bursts spill to overflow;
  // the owner interleaves pushes with pops while three thieves steal, and
  // every item must come out exactly once, by whichever side took it.
  WorkStealingDeque<int> deque(64);
  constexpr int kItems = 40000;
  std::vector<std::atomic<int>> taken(kItems);
  std::atomic<bool> done{false};
  const auto take = [&](int item) {
    taken[static_cast<std::size_t>(item)].fetch_add(1,
                                                    std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = deque.Steal()) take(*v);
      }
      while (auto v = deque.Steal()) take(*v);
    });
  }
  Rng rng(16);
  for (int next = 0; next < kItems;) {
    const int burst = 1 + static_cast<int>(rng.NextBelow(100));
    for (int i = 0; i < burst && next < kItems; ++i) deque.Push(next++);
    const int pops = static_cast<int>(rng.NextBelow(burst + 1));
    for (int i = 0; i < pops; ++i) {
      if (auto v = deque.Pop()) take(*v);
    }
  }
  while (auto v = deque.Pop()) take(*v);
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

// --- worker gang ------------------------------------------------------------

TEST(WorkerGang, RunsEveryWorkerOnce) {
  WorkerGang gang(6);
  std::vector<std::atomic<int>> hits(6);
  gang.Run([&](unsigned id) { hits[id].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerGang, SequentialPhasesReuseWorkers) {
  WorkerGang gang(3);
  std::atomic<int> total{0};
  for (int phase = 0; phase < 50; ++phase) {
    gang.Run([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(WorkerGang, DistinctWorkerIds) {
  WorkerGang gang(8);
  std::mutex mutex;
  std::set<unsigned> ids;
  gang.Run([&](unsigned id) {
    std::lock_guard<std::mutex> guard(mutex);
    ids.insert(id);
  });
  EXPECT_EQ(ids.size(), 8u);
}

}  // namespace
}  // namespace svagc
