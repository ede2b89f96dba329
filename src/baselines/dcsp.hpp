// DCSP — Decentralized Collaboration Service Placement (Yu et al.,
// GLOBECOM 2018), as described in the DMRA paper's §VI-B:
//
//   "Each time, UE proposes to BS with the lowest resource occupation,
//    and BS proposes to UE with the smallest number of BSs that can cover
//    it. If more than one UE satisfy the condition, BS chooses the UE
//    which consumes the least amount of radio resources. The iteration is
//    repeated until no UE sends service requests any more."
//
// Resource occupation of BS i for a UE requesting service j is the used
// fraction of (CRUs of j + RRBs); unlike DMRA, neither price nor SP
// ownership enters any decision.
#pragma once

#include "mec/allocator.hpp"

namespace dmra {

class DcspAllocator final : public Allocator {
 public:
  std::string name() const override { return "DCSP"; }
  Allocation allocate(const Scenario& scenario) const override;
  /// The lowest-occupancy candidate that can serve u now (ties toward the
  /// smaller BsId). Occupancy is measured against nominal capacity, so a
  /// crashed or degraded BS reads as full.
  std::optional<BsId> place(const Scenario& scenario, const ResourceState& state,
                            UeId u) const override;
};

}  // namespace dmra
