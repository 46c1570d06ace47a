#ifndef SVAGC_GC_PHASE_ENGINE_H_
#define SVAGC_GC_PHASE_ENGINE_H_

namespace svagc::rt {
class Jvm;
}  // namespace svagc::rt

namespace svagc::gc {

// Stepwise GC cycle driver shared by every phase-structured collector
// (ParallelLisp2, ShenandoahLike, ConcurrentSvagcCollector). A cycle is a
// sequence of bounded work quanta: BeginCycle() arms it, each StepPhase()
// call runs one quantum, and cycle_active() reports whether quanta remain.
// For the STW collectors a quantum is a whole phase; the concurrent
// collector yields *within* phases via resumable cursors, so a single cycle
// is many quanta.
//
// The fleet arbiter drives engines through exactly this interface: it
// round-robins StepPhase() across co-scheduled tenants until each reaches its
// relocation boundary (the point where the collector is about to move objects
// and needs the epoch TLB flush), broadcasts one batched multi-ASID flush,
// then steps each engine to completion.
class PhaseEngine {
 public:
  virtual ~PhaseEngine() = default;

  // Arms a cycle. Must not be called while cycle_active().
  virtual void BeginCycle(rt::Jvm& jvm) = 0;

  // Runs one work quantum. Pre: cycle_active().
  virtual void StepPhase() = 0;

  // True while quanta remain in the armed cycle.
  virtual bool cycle_active() const = 0;

  // True when the next StepPhase() begins relocating objects (and would
  // benefit from an externally provided TLB shootdown). Always false once
  // relocation has started or when no cycle is active.
  virtual bool at_relocation_boundary() const = 0;

  // Drains the armed cycle to completion.
  void FinishCycle() {
    while (cycle_active()) StepPhase();
  }
};

}  // namespace svagc::gc

#endif  // SVAGC_GC_PHASE_ENGINE_H_
