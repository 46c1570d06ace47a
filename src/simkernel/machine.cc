#include "simkernel/machine.h"

#include <bit>

namespace svagc::sim {

Machine::Machine(unsigned num_cores, const CostProfile& profile,
                 TranslationBackend translation)
    : num_cores_(num_cores), profile_(profile), translation_(translation) {
  SVAGC_CHECK(num_cores >= 1);
  if (num_cores <= 64) {
    tlb_holders_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(Tlb::kDenseAsids);
  }
  tlbs_.reserve(num_cores);
  disturbance_.reserve(num_cores);
  for (unsigned i = 0; i < num_cores; ++i) {
    tlbs_.push_back(std::make_unique<Tlb>());
    if (tlb_holders_ != nullptr) {
      tlbs_.back()->AttachCoreMask(tlb_holders_.get(), i);
    }
    disturbance_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
}

void Machine::FlushLocalTlb(CpuContext& ctx, std::uint64_t asid) {
  ctx.account.Charge(CostKind::kTlbFlushLocal, profile_.tlb_flush_local);
  HotCounter(ctr_local_flushes_, "tlb.local_flushes").Add();
  tlb(ctx.core_id).FlushAsid(asid);
}

void Machine::NoteBroadcast(const CpuContext& ctx) {
  HotCounter(ctr_broadcasts_, "ipi.broadcasts").Add();
  const unsigned targets = num_cores_ - (ctx.core_id < num_cores_ ? 1 : 0);
  if (targets == 0) return;  // no remote core: no IPI, no "ipi.sent"
  ipis_sent_.fetch_add(targets, std::memory_order_relaxed);
  HotCounter(ctr_ipis_sent_, "ipi.sent").Add(targets);
}

void Machine::SendTlbShootdown(CpuContext& ctx, std::uint64_t asid) {
  NoteBroadcast(ctx);
  for (unsigned core = 0; core < num_cores_; ++core) {
    if (core == ctx.core_id) continue;
    ctx.account.Charge(CostKind::kIpi, profile_.ipi_send);
    // The remote core takes the interrupt and flushes: both the handler cost
    // and the flush itself are stolen from whatever runs on that core.
    disturbance_[core]->fetch_add(
        static_cast<std::uint64_t>(profile_.ipi_handle +
                                   profile_.tlb_flush_local),
        std::memory_order_relaxed);
    tlb(core).FlushAsid(asid);
  }
}

void Machine::FlushPageAllCores(CpuContext& ctx, std::uint64_t asid,
                                std::uint64_t vpn) {
  ctx.account.Charge(CostKind::kTlbFlushPage,
                     profile_.tlb_flush_page * num_cores_);
  HotCounter(ctr_page_flushes_, "tlb.page_flushes").Add(num_cores_);
  if (TracksTlbHolders(asid)) {
    // A core whose TLB holds no entry of the ASID has nothing to drop.
    for (std::uint64_t cores = TlbHolders(asid); cores != 0;
         cores &= cores - 1) {
      tlb(static_cast<unsigned>(std::countr_zero(cores))).FlushPage(asid, vpn);
    }
    return;
  }
  for (unsigned core = 0; core < num_cores_; ++core) {
    tlb(core).FlushPage(asid, vpn);
  }
}

void Machine::SendTlbShootdownMulti(CpuContext& ctx,
                                    std::span<const std::uint64_t> asids) {
  if (asids.empty()) return;
  NoteBroadcast(ctx);
  for (unsigned core = 0; core < num_cores_; ++core) {
    if (core == ctx.core_id) continue;
    ctx.account.Charge(CostKind::kIpi, profile_.ipi_send);
    // One interrupt, several address spaces: the handler cost amortizes
    // across the batch, the per-asid flushes do not.
    disturbance_[core]->fetch_add(
        static_cast<std::uint64_t>(
            profile_.ipi_handle +
            profile_.tlb_flush_local * static_cast<double>(asids.size())),
        std::memory_order_relaxed);
    for (const std::uint64_t asid : asids) tlb(core).FlushAsid(asid);
  }
}

telemetry::Counter& Machine::HotCounter(
    std::atomic<telemetry::Counter*>& slot, std::string_view name) {
  telemetry::Counter* counter = slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    // Racing first uses resolve the same registry entry.
    counter = &metrics_.counter(name);
    slot.store(counter, std::memory_order_release);
  }
  return *counter;
}

std::uint64_t Machine::TotalDisturbanceCycles() const {
  std::uint64_t total = 0;
  for (const auto& cell : disturbance_) total += cell->load(std::memory_order_relaxed);
  return total;
}

void Machine::ResetCounters() {
  for (auto& cell : disturbance_) cell->store(0, std::memory_order_relaxed);
  ipis_sent_.store(0, std::memory_order_relaxed);
  metrics_.Reset();
}

void Machine::PublishTlbMetrics() {
  std::uint64_t hits = 0, misses = 0, flushes = 0;
  for (const auto& tlb : tlbs_) {
    hits += tlb->hits();
    misses += tlb->misses();
    flushes += tlb->flushes();
  }
  metrics_.counter("tlb.hits").Store(hits);
  metrics_.counter("tlb.misses").Store(misses);
  metrics_.counter("tlb.asid_flushes").Store(flushes);
}

}  // namespace svagc::sim
