// Compaction-plan optimizer: a pass between forwarding (phase II) and
// pointer adjustment (phase III) that rewrites the per-region move lists
// before the compaction phase executes them.
//
// Three independent transformations, all off by default (the optimizer pass
// is skipped entirely when every knob is off, so plans stay bit-identical to
// the unoptimized pipeline):
//
//  * Run coalescing — merges maximal source-adjacent spans of small live
//    objects into ONE Move covering the whole run. Sliding compaction packs
//    an adjacent span rigidly (identical dst - src displacement for every
//    member), so the merged move is exact. It cuts per-object MoveObject
//    dispatch, and — because every page fully inside the span is covered
//    exclusively by the run's own bytes — lets the mover swap the aligned
//    interior of runs that clear Threshold_Swapping even though no single
//    member is large. When the run's displacement is not a page multiple,
//    the optimizer pads the run's destination up to the source's page phase
//    (< one page of filler) so the interior qualifies for SwapVA; a run
//    whose whole displacement is below one page is pinned in place (the
//    reclaim cannot pay for copying the run).
//
//  * Dense-prefix elision — HotSpot-ParallelOld-style: the largest
//    region-boundary prefix whose modeled move cost exceeds the break-even
//    value of the bytes it would reclaim is pinned in place (forwarding slot
//    rewritten to self, no moves emitted; garbage gaps inside the prefix
//    become fillers). Phase III still adjusts references into the prefix.
//
//  * Adaptive threshold — ChooseSwapThresholdPages computes the Fig. 10
//    swap-vs-copy crossover from the calibrated CostProfile and last cycle's
//    moved bytes (cached vs DRAM copy rate), replacing the static
//    MoveObjectConfig::threshold_pages for the cycle's dispatch decisions.
//
// The rewrite re-runs Algorithm 3's CALCNEWADD over the live list, so the
// plan invariants the compaction scheduler relies on keep holding: moves
// ascend in src and dst, dst <= src, and fillers tile every destination gap.
// A run's move writes only [dst, dst+len) (its interior pages sit inside the
// byte span), so the scheduler's byte-precise extents cover it unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "gc/forwarding.h"
#include "simkernel/cost_model.h"

namespace svagc::gc {

struct PlanOptimizerConfig {
  bool coalesce_runs = false;
  // Sub-knob of coalesce_runs: pad qualifying runs' destinations to the
  // source page phase so their displacement becomes a page multiple (the
  // step that makes small-object runs actually swappable).
  bool align_runs = true;
  bool dense_prefix = false;
  bool adaptive_threshold = false;
  // Break-even gain for the dense prefix: pin while the modeled cost of
  // moving the prefix's live bytes is at least gain x (reclaimable bytes x
  // DRAM copy rate). 1.0 ~ "pin while the prefix is mostly live".
  double dense_prefix_gain = 1.0;
  // Hard cap on reclaimable bytes the dense prefix may leave unreclaimed,
  // as a fraction of heap capacity (HotSpot's dead-wood allowance). Keeps a
  // mostly-dense heap from pinning everything and starving the allocator.
  double dense_prefix_dead_wood = 0.05;

  bool enabled() const {
    return coalesce_runs || dense_prefix || adaptive_threshold;
  }
};

struct PlanOptimizerStats {
  std::uint64_t runs_coalesced = 0;   // emitted moves covering >= 2 objects
  std::uint64_t objects_in_runs = 0;  // sum of `objects` over those moves
  std::uint64_t runs_aligned = 0;     // runs whose dst was phase-padded
  std::uint64_t runs_elided = 0;      // qualifying runs pinned (slide < page)
  std::uint64_t align_pad_bytes = 0;  // filler bytes spent on phase padding
  std::uint64_t dense_prefix_bytes = 0;    // heap span pinned by the prefix
  std::uint64_t dense_prefix_objects = 0;  // live objects pinned by it
  std::uint64_t threshold_pages = 0;  // the cycle's effective swap threshold
  std::vector<std::uint32_t> run_lengths;  // objects per coalesced move
};

// The Fig. 10 crossover, computed analytically from the cost profile: the
// smallest page count for which one disjoint SwapVA (syscall entry + end-of-
// call local flush, then per page two cached table walks, two PTE reads, two
// split-PTL lock pairs and one entry exchange) models cheaper than copying
// the same pages. `last_cycle_moved_bytes` selects the copy rate the way
// CopyCyclesPerByte does (<= llc_bytes: cache-resident, else DRAM); pass 0
// before the first cycle for the conservative cache-resident rate. Clamped
// to [1, 64].
std::uint64_t ChooseSwapThresholdPages(const sim::CostProfile& cost,
                                       std::uint64_t last_cycle_moved_bytes);

// Rewrites `fwd` (plan, forwarding slots) in place according to `config`.
// `threshold_pages` is the cycle's effective swap threshold (adaptive or
// static) used for run qualification and the dense-prefix cost model;
// `profile` prices the break-even. Charges optimizer work to `ctx`. Returns
// per-cycle stats. When neither coalesce_runs nor dense_prefix is set the
// plan is returned untouched (adaptive-only runs change dispatch, not the
// plan).
PlanOptimizerStats OptimizePlan(rt::Jvm& jvm, ForwardingResult& fwd,
                                const PlanOptimizerConfig& config,
                                std::uint64_t threshold_pages,
                                sim::CpuContext& ctx, const GcCosts& costs,
                                const sim::CostProfile& profile,
                                bool evacuate_all_live);

}  // namespace svagc::gc
