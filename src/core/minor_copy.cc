#include "core/minor_copy.h"

#include "support/align.h"

namespace svagc::core {

EvacuationResult MinorEvacuator::Evacuate(
    const std::vector<rt::vaddr_t>& survivors, rt::vaddr_t to_space,
    EvacuationMode mode, sim::CpuContext& ctx) {
  EvacuationResult result;
  sim::AddressSpace& as = jvm_.address_space();
  rt::vaddr_t top = to_space;
  for (const rt::vaddr_t src : survivors) {
    rt::ObjectView view(as, src);
    const std::uint64_t size = view.size();
    const bool large =
        size >= config_.threshold_pages * sim::kPageSize;
    const rt::vaddr_t dst = large ? AlignUp(top, sim::kPageSize) : top;
    SVAGC_DCHECK(dst >= top);
    mover_.Move(ctx, gc::Move{src, dst, size, large});
    if (mode == EvacuationMode::kConcurrentSolo) {
      // Concurrent relocation: each object's move is independent and must
      // be visible before the next — no batching survives the object.
      mover_.Flush(ctx);
    }
    result.relocations.emplace_back(src, dst);
    ++result.objects;
    result.bytes += size;
    top = large ? AlignUp(dst + size, sim::kPageSize) : dst + size;
  }
  mover_.Flush(ctx);
  result.to_space_top = top;
  return result;
}

}  // namespace svagc::core
