// The allocator interface every scheme implements (DMRA, the paper's
// baselines, and the extra comparators).
//
// An allocator maps an immutable Scenario to an Allocation; any UE it
// leaves unassigned is, by definition, forwarded to the remote cloud.
// Allocators must be deterministic for a fixed scenario (randomized
// schemes take their seed at construction).
//
// Schemes that can also serve a dynamic population implement place():
// the one-UE decision the churn engine (sim/churn.hpp, through
// core/incremental.hpp) makes on every arrival, move and readmission.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "mec/allocation.hpp"
#include "mec/resources.hpp"
#include "mec/scenario.hpp"
#include "util/require.hpp"

namespace dmra {

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Short display name used in experiment tables ("DMRA", "DCSP", ...).
  virtual std::string name() const = 0;

  /// Compute the UE→BS association. Must satisfy constraints (12)–(15);
  /// sim/feasibility.hpp re-validates this in tests.
  virtual Allocation allocate(const Scenario& scenario) const = 0;

  /// Where this scheme sends UE u against the live ledger `state` (built
  /// over `scenario`): a BS that can serve u now, or nullopt for the
  /// remote cloud. Decides only; the caller commits. Schemes without a
  /// one-UE rule keep this default, which throws ContractViolation.
  virtual std::optional<BsId> place(const Scenario& /*scenario*/,
                                    const ResourceState& /*state*/, UeId /*u*/) const {
    throw ContractViolation(name() + " has no place() rule for dynamic serving");
  }
};

using AllocatorPtr = std::unique_ptr<Allocator>;

}  // namespace dmra
