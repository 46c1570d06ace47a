// Pluggable invariant checking: VerifyHeap's checks, generalized.
//
// Each invariant is a named predicate over a Jvm (heap-level checks from
// runtime/heap_verifier plus simkernel-level ones like TLB coherence).
// Tests and the differential oracle run the whole registry after a GC
// cycle; new subsystems register their own invariants without touching the
// existing checkers (see DESIGN.md, "Adding an invariant").
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/heap_verifier.h"

namespace svagc::rt {
class Jvm;
}

namespace svagc::verify {

// TLB coherence: no core's TLB maps a vaddr of this Jvm's address space to
// a frame the page table no longer agrees with. A violation is exactly the
// latent hazard a dropped shootdown or a mis-targeted flush leaves behind.
// Huge TLB entries are checked page-by-page across their whole 2 MiB reach,
// so a stale huge entry surviving a split is accepted exactly when every
// covered translation is still correct.
rt::VerifyResult CheckTlbCoherence(rt::Jvm& jvm);

// Huge-mapping consistency: no PMD entry in the Jvm's page table carries
// both a PteTable and a huge leaf for the same 2 MiB range — the aliasing a
// botched split or a half-applied PMD exchange would leave behind.
rt::VerifyResult CheckHugeMappingConsistency(rt::Jvm& jvm);

// Tier residency / slot bijection: with a far tier attached, every swapped
// PTE names a live swap slot, no two PTEs share a slot, and the number of
// swapped PTEs equals the allocator's used-slot count (no leaked and no
// double-freed slots). Frame ownership too: each slot holds its own frame,
// which no present PTE maps. Trivially ok when the address space has no
// far tier.
rt::VerifyResult CheckTierResidency(rt::Jvm& jvm);

struct InvariantFailure {
  std::string name;
  std::string error;
};

struct InvariantReport {
  bool ok = true;
  std::uint64_t checks_run = 0;
  std::vector<InvariantFailure> failures;

  std::string Describe() const;
};

class InvariantRegistry {
 public:
  using CheckFn = std::function<rt::VerifyResult(rt::Jvm&)>;

  // Empty registry; callers add their own checks.
  InvariantRegistry() = default;

  // The standard set: heap-tiling, page-extent-exclusivity,
  // reference-validity, tlb-coherence, huge-mapping-consistency.
  static InvariantRegistry Default();

  void Register(std::string name, CheckFn check);

  // Runs every invariant (all of them, even after a failure — a report
  // naming each broken invariant beats a first-failure abort).
  InvariantReport RunAll(rt::Jvm& jvm) const;
  // Runs one invariant by name; CHECK-fails on an unknown name.
  rt::VerifyResult Run(const std::string& name, rt::Jvm& jvm) const;

  std::vector<std::string> names() const;

 private:
  struct Entry {
    std::string name;
    CheckFn check;
  };
  std::vector<Entry> entries_;
};

}  // namespace svagc::verify
