#include "core/move_object.h"

#include <algorithm>
#include <span>

namespace svagc::core {

void ObjectMover::MoveSingle(sim::CpuContext& ctx, rt::vaddr_t src,
                             rt::vaddr_t dst, std::uint64_t size) {
  const std::uint64_t pages = CeilDiv(size, sim::kPageSize);
  // The byte-based threshold must match IFSWAPALIGN's (Algorithm 3 line 8):
  // only objects the *allocator* classified as large carry the page-extent
  // exclusivity guarantee that makes swapping their ceil(size/page) pages
  // safe. A ceil-based test here would swap a 9.1-page object — 10 pages —
  // whose tail page is shared with its neighbour. The adaptive per-cycle
  // threshold can therefore only raise this test, never lower it below the
  // allocation class (see set_threshold_pages).
  const std::uint64_t floor_pages =
      std::max(config_.threshold_pages, effective_threshold_pages());
  const bool swappable = config_.use_swapva &&
                         size >= floor_pages * sim::kPageSize &&
                         IsAligned(src, sim::kPageSize) &&
                         IsAligned(dst, sim::kPageSize);
  if (!swappable) {
    HazardCopy(ctx, dst, src, size);
    ++stats_.objects_copied;
    return;
  }
  SubmitSwap(ctx, sim::SwapRequest{src, dst, pages}, /*objects=*/1);
}

void ObjectMover::MoveRun(sim::CpuContext& ctx, rt::vaddr_t src,
                          rt::vaddr_t dst, std::uint64_t size,
                          std::uint32_t objects) {
  // Interior pages: fully inside the run's byte span, hence exclusively
  // covered by the run's own (whole, adjacent) live objects.
  const rt::vaddr_t interior_lo = AlignUp(src, sim::kPageSize);
  const rt::vaddr_t interior_hi = AlignDown(src + size, sim::kPageSize);
  const bool eligible =
      config_.use_swapva && src > dst &&
      IsAligned(src - dst, sim::kPageSize) && interior_hi > interior_lo &&
      interior_hi - interior_lo >= effective_threshold_pages() * sim::kPageSize;
  if (!eligible) {
    HazardCopy(ctx, dst, src, size);
    stats_.objects_copied += objects;
    return;
  }
  const std::uint64_t delta = src - dst;
  // Ragged head below the first interior page.
  if (interior_lo > src) HazardCopy(ctx, dst, src, interior_lo - src);
  // Swap the interior. All `objects` members are attributed to the swap —
  // the head/tail copies only carry the straddling fringes of border
  // members.
  SubmitSwap(ctx,
             sim::SwapRequest{interior_lo, interior_lo - delta,
                              (interior_hi - interior_lo) >> sim::kPageShift},
             objects);
  // Ragged tail. Its destination reaches into the interior's *source* pages
  // whenever delta < tail-to-interior distance, so HazardCopy's batch check
  // flushes the pending interior swap first — the exchange must place the
  // interior before the tail overwrites its source bytes.
  if (src + size > interior_hi) {
    HazardCopy(ctx, interior_hi - delta, interior_hi, src + size - interior_hi);
  }
}

void ObjectMover::SubmitSwap(sim::CpuContext& ctx, const sim::SwapRequest& req,
                             std::uint32_t objects) {
  if (!config_.aggregate) {
    bool repinned = false;
    for (;;) {
      const sim::SysStatus status = jvm_.kernel().SysSwapVa(
          jvm_.address_space(), ctx, req.a, req.b, req.pages, swap_options_);
      ++stats_.swap_calls_issued;
      if (status == sim::SysStatus::kOk) {
        BookSwapped(req, objects);
        return;
      }
      if (status == sim::SysStatus::kNotPinned && !repinned && TryRepin(ctx)) {
        repinned = true;
        ++stats_.pin_losses_recovered;
        continue;
      }
      // kFault, or a pin loss the kernel would not let us heal.
      ++stats_.swap_faults_recovered;
      CompleteByCopy(ctx, req, objects);
      return;
    }
  }
  batch_.push_back(req);
  batch_objects_.push_back(objects);
  if (batch_.size() >= config_.max_batch) Flush(ctx);
}

void ObjectMover::HazardCopy(sim::CpuContext& ctx, rt::vaddr_t dst,
                             rt::vaddr_t src, std::uint64_t bytes) {
  // Ordering hazard: a pending (buffered) swap still has to move the frames
  // under its source extent. If this memmove's destination reaches into any
  // pending source extent, the swap would later displace the bytes written
  // here — flush the batch first. Sources ascend within a region, so
  // comparing against the earliest pending source suffices.
  if (!batch_.empty() && dst + bytes > batch_.front().a) Flush(ctx);
  jvm_.address_space().CopyBytes(ctx, dst, src, bytes,
                                 sim::AddressSpace::CopyLocality::kCold);
  stats_.bytes_copied += bytes;
}

void ObjectMover::Flush(sim::CpuContext& ctx) {
  if (batch_.empty()) return;
  SVAGC_DCHECK(batch_objects_.size() == batch_.size());
  std::size_t done = 0;
  bool repinned = false;
  while (done < batch_.size()) {
    const std::span<const sim::SwapRequest> pending(batch_.data() + done,
                                                    batch_.size() - done);
    const sim::SwapVecResult result = jvm_.kernel().SysSwapVaVec(
        jvm_.address_space(), ctx, pending, swap_options_);
    ++stats_.swap_calls_issued;
    // The applied prefix is done and flushed — book it as swapped.
    for (std::size_t i = 0; i < result.completed; ++i) {
      BookSwapped(batch_[done + i], batch_objects_[done + i]);
    }
    done += result.completed;
    if (result.status == sim::SysStatus::kOk) break;
    if (result.status == sim::SysStatus::kNotPinned && !repinned &&
        TryRepin(ctx)) {
      repinned = true;
      ++stats_.pin_losses_recovered;
      continue;
    }
    // kFault mid-vector (or an unhealable pin loss): the remaining requests
    // — including the refused one — are completed by page-granular copies,
    // in batch order so the sliding-compaction overlap discipline holds.
    ++stats_.swap_faults_recovered;
    for (; done < batch_.size(); ++done) {
      CompleteByCopy(ctx, batch_[done], batch_objects_[done]);
    }
  }
  batch_.clear();
  batch_objects_.clear();
}

bool ObjectMover::TryRepin(sim::CpuContext& ctx) {
  if (jvm_.kernel().SysPin(ctx) != sim::SysStatus::kOk) return false;
  // Algorithm 4's precondition must be re-established: translations cached
  // by other cores while we were unpinned may be stale.
  jvm_.kernel().SysFlushProcessTlbs(jvm_.address_space(), ctx);
  return true;
}

void ObjectMover::CompleteByCopy(sim::CpuContext& ctx,
                                 const sim::SwapRequest& req,
                                 std::uint32_t objects) {
  if (req.pages == 0 || req.a == req.b) return;
  const std::uint64_t bytes = req.pages << sim::kPageShift;
  jvm_.address_space().CopyBytes(ctx, req.b, req.a, bytes,
                                 sim::AddressSpace::CopyLocality::kCold);
  stats_.bytes_copied += bytes;
  stats_.objects_copied += objects;
}

void PublishMoveStats(const MoveObjectStats& total, std::uint64_t pin_refusals,
                      rt::GcLog& log, telemetry::MetricsRegistry& metrics) {
  log.bytes_copied.store(total.bytes_copied, std::memory_order_relaxed);
  log.bytes_swapped.store(total.bytes_swapped, std::memory_order_relaxed);
  log.swap_calls.store(total.swap_calls_issued, std::memory_order_relaxed);
  metrics.counter("gc.objects_swapped").Store(total.objects_swapped);
  metrics.counter("gc.objects_copied").Store(total.objects_copied);
  metrics.counter("gc.swap_faults_recovered")
      .Store(total.swap_faults_recovered);
  metrics.counter("gc.pin_losses_recovered").Store(total.pin_losses_recovered);
  metrics.counter("gc.pin_refusals").Store(pin_refusals);
}

}  // namespace svagc::core
