// Phase II (forwarding-address calculation, Algorithm 3's CALCNEWADD) and
// phase III (pointer adjustment) of the LISP2 family.
//
// CALCNEWADD's per-object step is CalcNewAdd below, and ForwardMarked is the
// one walk that drives it: over the MarkBitmap's marked objects in a range,
// resumable, with an optional cycle budget. Three drivers run it and produce
// the same CompactionPlan:
//
//  * ComputeForwarding — one walk over [base, top) with no budget (the shape
//    of HotSpot ParallelGC's summary phase). The production path at one GC
//    thread and the oracle the other drivers are verified against.
//  * ComputeForwardingParallel — a three-step region pipeline, used above
//    one GC thread. Step 1 sweeps the MarkBitmap per region in parallel,
//    reducing each region to a tiny summary (small-object bytes before the
//    first large object, whether a large object occurs, and the
//    entry-independent layout tail after it). Step 2 is a serial exclusive
//    prefix scan over those summaries that fixes every region's destination
//    base — O(regions), regardless of heap size. Step 3 runs the walk per
//    region in parallel, each region starting from its precomputed base.
//  * The concurrent collector's plan quanta
//    (core/concurrent_svagc_collector.cc), which run the walk over
//    [base, top_at_plan) with the quantum as its budget.
//
// The plan carries the per-region move lists the compaction phase executes
// and the filler spans that keep the heap parsable.
#pragma once

#include <limits>

#include "gc/collector.h"
#include "gc/mark_bitmap.h"
#include "runtime/jvm.h"

namespace svagc::gc {

inline constexpr std::uint64_t kDefaultRegionBytes = 64 * sim::kPageSize;

struct ForwardingResult {
  CompactionPlan plan;
  // Pre-compaction addresses of all live objects, ascending; the adjust
  // phase strides over this list.
  std::vector<rt::vaddr_t> live;
};

// Where CalcNewAdd steps record their results. The serial and concurrent
// drivers point these at the plan itself; the parallel install points the
// fillers, count and live list at per-region lists it stitches afterwards.
// `live` may be null: the plan optimizer's replay keeps the live list it was
// given.
struct CalcNewAddSink {
  std::vector<std::pair<rt::vaddr_t, std::uint64_t>>& fillers;
  std::vector<std::vector<Move>>& region_moves;  // indexed by source region
  std::uint64_t region_bytes;
  std::uint64_t& moved_objects;
  std::vector<rt::vaddr_t>* live;
};

// Algorithm 3's CALCNEWADD for the live object at `addr`: aligns `comp_pnt`
// for the object's size class (the gap becomes a dest-side filler), stores
// the destination in the object's forwarding slot, appends the object to the
// live list, plans a Move when the object is displaced (or always, with
// `evacuate_all_live` — the cost shape of an evacuating collector), and
// post-aligns after a large object (line 25: the next destination starts on a
// fresh page; the tail becomes filler). Returns the destination; `comp_pnt`
// advances past the object. Charges nothing: ForwardMarked charges the walk.
inline rt::vaddr_t CalcNewAdd(const rt::Heap& heap, sim::AddressSpace& as,
                              rt::vaddr_t addr, std::uint64_t size,
                              bool evacuate_all_live, rt::vaddr_t& comp_pnt,
                              const CalcNewAddSink& sink) {
  const rt::vaddr_t dst = heap.AlignFor(size, comp_pnt);
  if (dst > comp_pnt) sink.fillers.emplace_back(comp_pnt, dst - comp_pnt);
  rt::ObjectView(as, addr).set_forwarding(dst);
  if (sink.live != nullptr) sink.live->push_back(addr);
  if (dst != addr || evacuate_all_live) {
    SVAGC_DCHECK(dst <= addr);  // sliding compaction only moves left
    sink.region_moves[(addr - heap.base()) / sink.region_bytes].push_back(
        Move{addr, dst, size, heap.IsLargeObject(size)});
    ++sink.moved_objects;
  }
  comp_pnt = dst + size;
  const rt::vaddr_t post = heap.AlignFor(size, comp_pnt);
  if (post > comp_pnt) {
    sink.fillers.emplace_back(comp_pnt, post - comp_pnt);
    comp_pnt = post;
  }
  return dst;
}

// Resumable position and running totals of one ForwardMarked walk.
struct ForwardingWalk {
  rt::vaddr_t scan = 0;      // bytes below this are scanned and charged
  rt::vaddr_t comp_pnt = 0;  // CALCNEWADD's next destination
  std::uint64_t live_objects = 0;
  std::uint64_t live_bytes = 0;
};

inline constexpr double kNoBudget = std::numeric_limits<double>::infinity();

// Phase II's walk: runs CalcNewAdd, in address order, on every marked object
// whose header lies in [walk.scan, end). Per object it charges
// heap_scan_per_byte for the bytes passed since the previous object (the
// object's own bytes included, clipped at `end`), then forward_obj. It reads
// only the bitmap and marked headers. Without a budget it runs to `end` and
// charges the trailing bytes, so one call charges heap_scan_per_byte x
// (end - scan) + forward_obj x objects. With a budget it stops after the
// object whose charges bring this call's total to `budget`, and a later call
// resumes from walk.scan and walk.comp_pnt. Returns true once it reached
// `end`.
bool ForwardMarked(const rt::Heap& heap, sim::AddressSpace& as,
                   const MarkBitmap& bitmap, rt::vaddr_t end,
                   bool evacuate_all_live, sim::CpuContext& ctx,
                   const GcCosts& costs, const CalcNewAddSink& sink,
                   ForwardingWalk& walk, double budget = kNoBudget);

// Walks the heap, assigns each live object its destination (page-aligning
// large objects per the heap's policy), stores it in the object header's
// forwarding slot, and accumulates the compaction plan. With
// `evacuate_all_live`, unmoved objects (dst == src) are still planned as
// moves — the cost shape of an evacuating collector.
ForwardingResult ComputeForwarding(rt::Jvm& jvm, const MarkBitmap& bitmap,
                                   sim::CpuContext& ctx, const GcCosts& costs,
                                   std::uint64_t region_bytes,
                                   bool evacuate_all_live = false);

// Parallel region-summary forwarding (see file comment). Runs the two
// parallel steps on the collector's worker gang and the prefix scan on
// worker 0; the plan (and every object's forwarding slot) is bit-identical
// to ComputeForwarding's. `critical_path`, if non-null, receives the phase's
// modeled pause: parallel-step critical paths plus the serial scan.
ForwardingResult ComputeForwardingParallel(rt::Jvm& jvm,
                                           const MarkBitmap& bitmap,
                                           CollectorBase& collector,
                                           std::uint64_t region_bytes,
                                           bool evacuate_all_live = false,
                                           double* critical_path = nullptr);

// Phase III worker body: rewrites the reference slots of live objects
// live[worker], live[worker+stride], ... to the targets' forwarding
// addresses. Worker 0 additionally rewrites the roots.
void AdjustReferences(rt::Jvm& jvm, const std::vector<rt::vaddr_t>& live,
                      sim::CpuContext& ctx, const GcCosts& costs,
                      unsigned worker, unsigned stride);

}  // namespace svagc::gc
