#include "verify/invariant_registry.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/jvm.h"
#include "support/table.h"

namespace svagc::verify {

rt::VerifyResult CheckTlbCoherence(rt::Jvm& jvm) {
  rt::VerifyResult result;
  sim::Machine& machine = jvm.machine();
  const sim::Translation& table = jvm.address_space().translation();
  const std::uint64_t asid = jvm.address_space().asid();
  for (unsigned core = 0; core < machine.num_cores(); ++core) {
    for (const sim::TlbSnapshotEntry& entry :
         machine.tlb(core).SnapshotValidEntries()) {
      if (entry.asid != asid) continue;
      // A huge entry asserts 512 translations at once; every one must still
      // hold (a split leaves the huge entry stale-but-correct only as long
      // as each covered PTE still maps base+i).
      const std::uint64_t reach = entry.huge ? sim::kPagesPerHuge : 1;
      for (std::uint64_t i = 0; i < reach; ++i) {
        const auto mapped = table.Lookup(entry.vpn + i);
        if (mapped.has_value() && *mapped == entry.frame + i) continue;
        result.ok = false;
        result.error = Format(
            "core %u TLB%s maps vpn 0x%llx to frame %llu but the page table "
            "%s",
            core, entry.huge ? " (2 MiB entry)" : "",
            (unsigned long long)(entry.vpn + i),
            (unsigned long long)(entry.frame + i),
            mapped.has_value()
                ? Format("has frame %llu", (unsigned long long)*mapped).c_str()
                : "has no mapping");
        return result;
      }
    }
  }
  return result;
}

rt::VerifyResult CheckHugeMappingConsistency(rt::Jvm& jvm) {
  rt::VerifyResult result;
  const std::uint64_t aliased =
      jvm.address_space().translation().CountAliasedUnits();
  if (aliased != 0) {
    result.ok = false;
    result.error = Format(
        "%llu 2 MiB unit%s carry both 4 KiB mappings and a huge leaf",
        (unsigned long long)aliased, aliased == 1 ? "" : "s");
  }
  return result;
}

rt::VerifyResult CheckTierResidency(rt::Jvm& jvm) {
  rt::VerifyResult result;
  const sim::FarTier* tier = jvm.address_space().far_tier();
  if (tier == nullptr) return result;
  const sim::Translation& table = jvm.address_space().translation();
  std::unordered_set<std::uint64_t> seen_slots;
  // Frame ownership: which present PTE or slot holds each frame.
  enum : std::uint8_t { kFree, kPresent, kSlot };
  std::vector<std::uint8_t> owner(jvm.address_space().phys().total_frames(),
                                  kFree);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> swapped_vpns;
  std::uint64_t resident = 0;
  table.VisitSmallPages([&](std::uint64_t vpn, sim::Pte pte) {
    if (!result.ok) return;
    if (pte.present()) {
      ++resident;
      owner[pte.frame()] = kPresent;
      return;
    }
    if (!pte.swapped()) return;
    const std::uint64_t slot = pte.swap_slot();
    swapped_vpns.emplace_back(vpn, slot);
    if (!tier->SlotAllocated(slot)) {
      result.ok = false;
      result.error = Format(
          "vpn 0x%llx is swapped to slot %llu but the slot is not allocated",
          (unsigned long long)vpn, (unsigned long long)slot);
      return;
    }
    if (!seen_slots.insert(slot).second) {
      result.ok = false;
      result.error =
          Format("swap slot %llu is referenced by more than one PTE "
                 "(second: vpn 0x%llx)",
                 (unsigned long long)slot, (unsigned long long)vpn);
    }
  });
  if (!result.ok) return result;
  const std::uint64_t swapped = swapped_vpns.size();
  if (swapped != tier->used_slots()) {
    result.ok = false;
    result.error = Format(
        "%llu swapped PTEs but %llu allocated swap slots (leak or "
        "double-free)",
        (unsigned long long)swapped, (unsigned long long)tier->used_slots());
    return result;
  }
  if (resident != tier->resident_pages()) {
    result.ok = false;
    result.error = Format(
        "%llu present small-page PTEs but the tier counts %llu resident",
        (unsigned long long)resident,
        (unsigned long long)tier->resident_pages());
    return result;
  }
  // Every allocated slot is named by exactly one swapped PTE (checked
  // above), so these are all the slots: each must own its frame alone.
  for (const auto& [vpn, slot] : swapped_vpns) {
    const sim::frame_t frame = tier->SlotFrame(slot);
    if (owner[frame] != kFree) {
      result.ok = false;
      result.error = Format(
          "swap slot %llu (vpn 0x%llx) holds frame %llu, which %s",
          (unsigned long long)slot, (unsigned long long)vpn,
          (unsigned long long)frame,
          owner[frame] == kPresent ? "a present PTE also maps"
                                   : "another swap slot also holds");
      return result;
    }
    owner[frame] = kSlot;
  }
  // No check against resident_limit(): the limit is enforced lazily (on the
  // fault path, SysMadviseCold and SysSetResidencyLimit), so huge-leaf
  // splits and post-enable mappings legitimately exceed it in between.
  return result;
}

std::string InvariantReport::Describe() const {
  if (ok) return Format("all %llu invariants ok", (unsigned long long)checks_run);
  std::string out;
  for (const InvariantFailure& failure : failures) {
    if (!out.empty()) out += "; ";
    out += failure.name + ": " + failure.error;
  }
  return out;
}

InvariantRegistry InvariantRegistry::Default() {
  InvariantRegistry registry;
  registry.Register("heap-tiling", rt::CheckHeapTiling);
  registry.Register("page-extent-exclusivity", rt::CheckPageExtents);
  registry.Register("reference-validity", rt::CheckReferences);
  registry.Register("tlb-coherence", CheckTlbCoherence);
  registry.Register("huge-mapping-consistency", CheckHugeMappingConsistency);
  registry.Register("tier-residency", CheckTierResidency);
  return registry;
}

void InvariantRegistry::Register(std::string name, CheckFn check) {
  for (const Entry& entry : entries_) {
    SVAGC_CHECK(entry.name != name);
  }
  entries_.push_back({std::move(name), std::move(check)});
}

InvariantReport InvariantRegistry::RunAll(rt::Jvm& jvm) const {
  InvariantReport report;
  for (const Entry& entry : entries_) {
    const rt::VerifyResult result = entry.check(jvm);
    ++report.checks_run;
    if (!result.ok) {
      report.ok = false;
      report.failures.push_back({entry.name, result.error});
    }
  }
  return report;
}

rt::VerifyResult InvariantRegistry::Run(const std::string& name,
                                        rt::Jvm& jvm) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.check(jvm);
  }
  SVAGC_CHECK(false && "unknown invariant");
  return {};
}

std::vector<std::string> InvariantRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.name);
  return out;
}

}  // namespace svagc::verify
