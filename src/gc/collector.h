// Collector base class: phase timing over modeled cycles, worker contexts,
// and the shared LISP2 scaffolding the concrete collectors specialize.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gc/gc_costs.h"
#include "gc/mark_bitmap.h"
#include "runtime/jvm.h"
#include "simkernel/machine.h"
#include "support/worker_gang.h"

namespace svagc::gc {

// One live-object relocation, produced by the forwarding phase and consumed
// by the compaction phase.
struct Move {
  rt::vaddr_t src = 0;
  rt::vaddr_t dst = 0;
  std::uint64_t size = 0;
  bool large = false;  // >= Threshold_Swapping pages (page-aligned dst)
  // Plan-optimizer coalesced run: [src, src+size) is a span of whole live
  // objects sliding rigidly by (src - dst), so every page fully inside the
  // span is exclusively covered by the run's own bytes — the mover may swap
  // the aligned interior even though no single member object is large.
  bool run = false;
  std::uint32_t objects = 1;  // live objects this move covers

  bool operator==(const Move&) const = default;
};

// Full compaction plan for one GC cycle.
struct CompactionPlan {
  std::uint64_t region_bytes = 0;
  std::vector<std::vector<Move>> region_moves;  // indexed by source region
  // Dest-side gaps to refill with filler words after all moves complete.
  std::vector<std::pair<rt::vaddr_t, std::uint64_t>> fillers;
  rt::vaddr_t new_top = 0;
  std::uint64_t live_objects = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t moved_objects = 0;
};

// One sub-span inside a phase, at a phase-relative start time. `track`
// selects the Perfetto worker track (tid = 1 + track).
struct TaskSpan {
  unsigned track = 0;
  std::string name;
  double start = 0;
  double dur = 0;
};

// Worker/region task spans for one cycle, indexed by phase:
// {0 mark, 1 forward, 2 adjust, 3 compact, 4 other}.
using CycleTasks = std::array<std::vector<TaskSpan>, 5>;

class CollectorBase : public rt::CollectorIface {
 public:
  CollectorBase(sim::Machine& machine, unsigned gc_threads,
                unsigned first_core);
  ~CollectorBase() override;

  unsigned gc_threads() const { return static_cast<unsigned>(workers_.size()); }
  sim::CpuContext& worker_ctx(unsigned i) { return *workers_[i]; }
  WorkerGang& gang() { return *gang_; }
  const GcCosts& costs() const { return costs_; }

  // Runs `body(worker_id, ctx)` on every worker; returns the critical-path
  // modeled cycles (max per-worker delta), which is the phase's pause
  // contribution on a machine with >= gc_threads free cores.
  double RunParallelPhase(
      const std::function<void(unsigned, sim::CpuContext&)>& body);

  // Serial phases run on worker 0's context; returns the cycle delta.
  double RunSerialPhase(const std::function<void(sim::CpuContext&)>& body);

  // Collector-side telemetry: GC counters and the pause histogram live here
  // ("gc.bytes_copied", "gc.bytes_swapped", "gc.pause_cycles", ...; see
  // DESIGN.md section 8 for the name schema).
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

  // Perfetto "process" id of this collector instance (unique per process so
  // multi-JVM traces separate).
  std::uint32_t trace_pid() const { return trace_pid_; }

  // Convenience: the machine's attached trace sink (null when tracing off).
  telemetry::TraceRecorder* tracer() const { return machine_.tracer(); }

 protected:
  // Brackets one phase for task-span capture: Begin snapshots every worker's
  // account total, End returns the per-worker deltas accumulated since (a
  // phase may span several Run*Phase calls, e.g. the forwarding pipeline).
  void BeginPhaseCapture();
  std::vector<double> EndPhaseCapture() const;

  // Turns the per-worker deltas from EndPhaseCapture into phase-relative
  // TaskSpans named "<prefix>/w<i>" (zero-cost workers are skipped).
  static std::vector<TaskSpan> WorkerTaskSpans(const char* prefix,
                                               const std::vector<double>& deltas);

  // End-of-cycle hook every Collect() implementation calls after
  // log_.Record(rec): records the pause histogram, republishes the GcLog
  // totals into metrics(), and — when a tracer is attached — emits the
  // cycle/phase/task spans on this collector's modeled-cycle trace clock.
  // Phases are laid out back-to-back in mark, forward, adjust, compact,
  // other order, so per-phase durations sum to the cycle duration exactly.
  void PublishCycleTelemetry(const rt::GcCycleRecord& rec,
                             const CycleTasks& tasks);

  sim::Machine& machine_;
  GcCosts costs_ = DefaultGcCosts();

 private:
  std::vector<std::unique_ptr<sim::CpuContext>> workers_;
  std::unique_ptr<WorkerGang> gang_;
  telemetry::MetricsRegistry metrics_;
  std::vector<double> capture_base_;
  double trace_clock_ = 0;  // modeled-cycle timestamp of the next cycle span
  const std::uint32_t trace_pid_;
};

}  // namespace svagc::gc
