// Parallel LISP2 mark-compact: the shared engine behind the ParallelGC-like
// baseline, the Shenandoah-like baseline's full collection, and SVAGC.
//
// Phase structure per cycle (paper §II):
//   I   marking            — parallel, level-synchronous work distribution
//   II  forwarding calc    — the serial walk at one GC thread, the parallel
//                            region-summary pipeline above that (both in
//                            gc/forwarding.h, bit-identical plans)
//   III pointer adjustment — parallel over the live list
//   IV  compaction         — in address order when compact_parallelism() is
//                            1; otherwise parallel sliding compaction over
//                            regions, scheduled by a dependency-aware
//                            work-stealing ready queue.
//
// Subclasses specialize MoveObject (SwapVA vs memmove), the compaction
// prologue/epilogue (pinning + up-front TLB shootdown for SVAGC), and the
// compaction parallelism (1 for the Shenandoah-like baseline, whose copying
// phase has no work stealing — the paper's stated reason it trails).
#pragma once

#include <atomic>
#include <memory>

#include "gc/collector.h"
#include "gc/forwarding.h"
#include "gc/mark.h"
#include "gc/phase_engine.h"
#include "gc/plan_optimizer.h"
#include "support/ws_deque.h"

namespace svagc::gc {

// The four top-level phases of one LISP2 cycle, in execution order. Used by
// the stepwise collection API: a driver (the fleet arbiter) can run several
// tenants' cycles phase-interleaved and insert cross-tenant work — notably
// one shared epoch TLB broadcast — at the adjust/compact boundary.
enum class GcPhase : unsigned {
  kMark = 0,
  kForward,
  kAdjust,
  kCompact,
  kDone,  // no cycle in flight
};

inline const char* GcPhaseName(GcPhase phase) {
  switch (phase) {
    case GcPhase::kMark:
      return "mark";
    case GcPhase::kForward:
      return "forward";
    case GcPhase::kAdjust:
      return "adjust";
    case GcPhase::kCompact:
      return "compact";
    case GcPhase::kDone:
      return "done";
  }
  return "?";
}

class ParallelLisp2 : public CollectorBase, public PhaseEngine {
 public:
  ParallelLisp2(sim::Machine& machine, unsigned gc_threads,
                unsigned first_core)
      : CollectorBase(machine, gc_threads, first_core) {}

  const char* name() const override { return "ParallelLISP2"; }

  // One full STW cycle: BeginCycle + StepPhase until done.
  void Collect(rt::Jvm& jvm) override;

  // --- stepwise collection (the fleet-arbiter yield seam) ------------------
  // BeginCycle opens a cycle; each StepPhase runs exactly one phase (mark,
  // forward incl. the plan optimizer, adjust, then compact incl. prologue/
  // epilogue and the cycle record). Between steps the collector is quiescent:
  // no worker holds modeled state, so a driver may run other tenants' steps
  // — or a cross-tenant TLB flush — before resuming. Collect() is exactly
  // BeginCycle + 4 StepPhase calls, so single-stepped and monolithic cycles
  // are bit-identical.
  void BeginCycle(rt::Jvm& jvm) override;
  void StepPhase() override;
  bool cycle_active() const override { return cycle_ != nullptr; }
  bool at_relocation_boundary() const override {
    return cycle_ != nullptr && cycle_->next == GcPhase::kCompact;
  }
  GcPhase next_phase() const {
    return cycle_ == nullptr ? GcPhase::kDone : cycle_->next;
  }

  const PlanOptimizerConfig& plan_optimizer() const { return plan_optimizer_; }
  void set_plan_optimizer(const PlanOptimizerConfig& config) {
    plan_optimizer_ = config;
  }
  // Stats from the last cycle's optimizer pass (zeroed when disabled).
  const PlanOptimizerStats& last_plan_stats() const { return last_plan_stats_; }

 protected:
  // Moves one object from move.src to move.dst (sizes in bytes) on behalf of
  // gang worker `worker` (whose context `ctx` is). The base implementation
  // is a pure memmove through the address space.
  virtual void MoveObject(rt::Jvm& jvm, sim::CpuContext& ctx, unsigned worker,
                          const Move& move);

  // Called once per region when the executing worker finishes that region's
  // moves — aggregation batches must be flushed *before* the region is
  // published as done (later regions may read the frames the batch still has
  // to place).
  virtual void FlushMoves(rt::Jvm& jvm, sim::CpuContext& ctx,
                          unsigned worker) {
    (void)jvm;
    (void)ctx;
    (void)worker;
  }

  // STW hooks around the compaction phase; cycles they charge to `ctx` are
  // recorded under `other`. SVAGC pins workers and issues the single
  // up-front process-wide TLB shootdown here (Algorithm 4 lines 2-5).
  virtual void CompactionPrologue(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }
  virtual void CompactionEpilogue(rt::Jvm& jvm, sim::CpuContext& ctx) {
    (void)jvm;
    (void)ctx;
  }

  // Number of workers participating in compaction (phase IV). The mark and
  // adjust phases always use the full gang.
  virtual unsigned compact_parallelism() const { return gc_threads(); }

  // The swap threshold the plan optimizer qualifies runs against (and, for
  // SVAGC, the cycle's mover dispatch floor). The base value is the static
  // Threshold_Swapping; SvagcCollector overrides it with the per-cycle
  // adaptive choice when PlanOptimizerConfig::adaptive_threshold is set.
  virtual std::uint64_t PlanSwapThresholdPages(rt::Jvm& jvm) const {
    return jvm.heap().config().swap_threshold_pages;
  }

  // When true, every live object is "moved" even if its destination equals
  // its source — the cost profile of an evacuating (copying) collector,
  // which pays for all live bytes each cycle, not just the displaced ones.
  // Sliding compactors return false.
  virtual bool EvacuateAllLive() const { return false; }

 private:
  // In-flight cycle state for the stepwise API. Owned between BeginCycle and
  // the final StepPhase; null while no cycle is active.
  struct CycleState {
    explicit CycleState(rt::Jvm& jvm) : jvm(&jvm), bitmap(jvm.heap()) {}
    rt::Jvm* jvm;
    rt::GcCycleRecord rec;
    CycleTasks tasks;
    MarkBitmap bitmap;
    ForwardingResult fwd{};
    GcPhase next = GcPhase::kMark;
  };

  void StepMark();
  void StepForward();
  void StepAdjust();
  void StepCompact();

  // Evacuates one region's moves on `worker` and records the region's
  // modeled cost delta (for the work-stealing replay).
  void ExecuteRegion(rt::Jvm& jvm, sim::CpuContext& ctx, unsigned worker,
                     const CompactionPlan& plan, std::uint64_t region);

  // Work-stealing compaction. Regions become ready when every earlier region
  // whose sources their moves overwrite has been evacuated; they are
  // released into the completing worker's Chase-Lev deque and claimed by
  // whichever worker is idle. The real execution order is host-dependent,
  // so the *reported* compact cycles come from a deterministic
  // list-scheduling replay over per-region costs (which are
  // order-independent — see parallel_lisp2.cc) rather than from the racy
  // per-worker account deltas. When `compact_tasks` is non-null, the replay
  // also emits one phase-relative TaskSpan per region.
  double CompactWorkStealing(rt::Jvm& jvm, const CompactionPlan& plan,
                             unsigned compact_workers,
                             std::vector<TaskSpan>* compact_tasks);

  PlanOptimizerConfig plan_optimizer_;
  PlanOptimizerStats last_plan_stats_;
  std::unique_ptr<CycleState> cycle_;

  // --- Per-cycle work-stealing state ---
  // Per-worker ready deques, per-region unmet-dependency counters, and for
  // each region the list of regions waiting on it.
  std::vector<std::unique_ptr<WorkStealingDeque<std::uint64_t>>> deques_;
  std::vector<std::atomic<std::uint32_t>> deps_left_;
  std::vector<std::vector<std::uint64_t>> watchers_;
  std::atomic<std::uint64_t> regions_left_{0};
  // Per-region modeled cost, written once by the executing worker and read
  // after the phase joins (for the deterministic replay).
  std::vector<double> region_cost_;
};

}  // namespace svagc::gc
