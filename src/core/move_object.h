// Algorithm 3's MOVEOBJECT: the SwapVA-or-memmove dispatcher, plus the
// per-worker aggregation buffer of Fig. 5(b).
#pragma once

#include <cstdint>
#include <vector>

#include "gc/collector.h"
#include "runtime/jvm.h"
#include "simkernel/swapva.h"
#include "support/align.h"
#include "telemetry/metrics.h"

namespace svagc::core {

struct MoveObjectConfig {
  // Threshold_Swapping in pages (paper's break-even default).
  std::uint64_t threshold_pages = 10;
  bool use_swapva = true;      // off = pure memmove (Fig. 11 left bars)
  bool aggregate = true;       // batch swap requests into one syscall
  bool pmd_caching = true;
  // Huge-entry swapping: let the kernel exchange whole PMD entries for
  // 2 MiB-aligned request pairs. Pointless without the heap's matching
  // huge_threshold_pages alignment class; off by default so every pre-huge
  // figure reproduces bit-identically.
  bool pmd_swapping = false;
  sim::TlbPolicy tlb_policy = sim::TlbPolicy::kLocalOnly;
  std::size_t max_batch = 64;  // requests per aggregated syscall
};

struct MoveObjectStats {
  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_swapped = 0;  // page-rounded
  std::uint64_t swap_calls_issued = 0;
  std::uint64_t objects_swapped = 0;
  std::uint64_t objects_copied = 0;
  // Recovery ledger: swap syscalls that failed (kFault, possibly mid-vector)
  // and were completed by falling back to page-granular copies, and pin
  // revocations (kNotPinned) healed by re-pinning + re-flushing.
  std::uint64_t swap_faults_recovered = 0;
  std::uint64_t pin_losses_recovered = 0;
};

// One mover per compaction worker. Swap requests may be buffered; the owner
// must call Flush() before publishing its region as evacuated (later
// regions read frames the buffered swaps still have to place).
//
// Swap syscalls can fail (see sim::SysStatus); the mover never lets a
// failure lose a move. A kNotPinned is healed by one re-pin + process flush
// and a retry; a kFault (or a failed re-pin) degrades the affected requests
// to page-granular memmoves. Either way every accepted Move lands, and the
// stats record which path it took — swap/copy counts are booked when the
// move actually completes, not when it is enqueued.
class ObjectMover {
 public:
  ObjectMover(rt::Jvm& jvm, const MoveObjectConfig& config)
      : jvm_(jvm), config_(config) {
    batch_.reserve(config.max_batch);
    batch_objects_.reserve(config.max_batch);
    swap_options_.pmd_caching = config.pmd_caching;
    swap_options_.pmd_swapping = config.pmd_swapping;
    swap_options_.tlb_policy = config.tlb_policy;
  }

  // MOVEOBJECT for one planned move: a plan-optimizer coalesced run
  // (move.run) or a single object.
  void Move(sim::CpuContext& ctx, const gc::Move& move) {
    if (move.run) {
      MoveRun(ctx, move.src, move.dst, move.size, move.objects);
    } else {
      MoveSingle(ctx, move.src, move.dst, move.size);
    }
  }

  void Flush(sim::CpuContext& ctx);

  // Switches the TLB policy for subsequent swaps — the collector prologue
  // drops to kGlobalPerCall when its pin request was refused. Only legal
  // with an empty batch (before any Move of the phase).
  void set_tlb_policy(sim::TlbPolicy policy) {
    SVAGC_DCHECK(batch_.empty());
    swap_options_.tlb_policy = policy;
  }

  // Per-cycle swap threshold override (the plan optimizer's adaptive
  // choice); 0 restores the static config value. Only legal with an empty
  // batch. Note the asymmetry in how it is applied: run interiors use it
  // directly (their page exclusivity is structural), but single objects keep
  // the allocator's class as a floor — an accidentally page-aligned small
  // object may share its ceil-extent tail page with a neighbour, so dropping
  // the single-object threshold below the allocation class would be unsound.
  void set_threshold_pages(std::uint64_t pages) {
    SVAGC_DCHECK(batch_.empty());
    cycle_threshold_pages_ = pages;
  }
  std::uint64_t effective_threshold_pages() const {
    return cycle_threshold_pages_ != 0 ? cycle_threshold_pages_
                                       : config_.threshold_pages;
  }

  const MoveObjectStats& stats() const { return stats_; }

 private:
  // MOVEOBJECT(source, dest, length): SwapVA when the object spans at least
  // Threshold_Swapping pages and both addresses are page-aligned; memmove
  // otherwise.
  void MoveSingle(sim::CpuContext& ctx, rt::vaddr_t src, rt::vaddr_t dst,
                  std::uint64_t size);

  // Moves a plan-optimizer coalesced run: `objects` whole live objects
  // sliding rigidly from [src, src+size) to [dst, dst+size). When the slide
  // is a page multiple and the run's page-interior clears the cycle's swap
  // threshold, the ragged head and tail are memmoved and the interior pages
  // are swapped — exclusivity holds because every interior page is covered
  // entirely by the run's own bytes, unlike a lone small object. Otherwise
  // the whole run is one memmove (still one dispatch for `objects` objects).
  void MoveRun(sim::CpuContext& ctx, rt::vaddr_t src, rt::vaddr_t dst,
               std::uint64_t size, std::uint32_t objects);

  // Re-pin after a kNotPinned and restore the Algorithm 4 precondition with
  // one process-wide flush. Returns false if the pin itself was refused.
  bool TryRepin(sim::CpuContext& ctx);

  // Completes accepted-but-unswapped requests with a page-granular copy;
  // `objects` is how many live objects the request stood for (1 for a plain
  // large object, the member count for a run interior).
  void CompleteByCopy(sim::CpuContext& ctx, const sim::SwapRequest& req,
                      std::uint32_t objects);

  // Issues one swap request (direct syscall or batched, per config),
  // attributing `objects` live objects to whichever path completes it.
  void SubmitSwap(sim::CpuContext& ctx, const sim::SwapRequest& req,
                  std::uint32_t objects);

  // Memmove with the pending-batch ordering hazard check (see Move).
  void HazardCopy(sim::CpuContext& ctx, rt::vaddr_t dst, rt::vaddr_t src,
                  std::uint64_t bytes);

  void BookSwapped(const sim::SwapRequest& req, std::uint32_t objects) {
    stats_.objects_swapped += objects;
    stats_.bytes_swapped += req.pages << sim::kPageShift;
  }

  rt::Jvm& jvm_;
  MoveObjectConfig config_;
  sim::SwapVaOptions swap_options_;
  std::vector<sim::SwapRequest> batch_;
  // Parallel to batch_: live objects each pending request stands for.
  std::vector<std::uint32_t> batch_objects_;
  std::uint64_t cycle_threshold_pages_ = 0;  // 0 = use config_.threshold_pages
  MoveObjectStats stats_;
};

// Publishes an SVAGC collector's cumulative mover totals: the log's byte and
// swap-call totals (PublishCycleTelemetry re-Stores them as gc.* counters)
// and the mover breakdown counters, which only exist here.
void PublishMoveStats(const MoveObjectStats& total, std::uint64_t pin_refusals,
                      rt::GcLog& log, telemetry::MetricsRegistry& metrics);

}  // namespace svagc::core
