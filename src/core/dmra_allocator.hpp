// Allocator adapters for DMRA so experiments can treat it uniformly with
// the baselines.
#pragma once

#include "core/decentralized.hpp"
#include "core/solver.hpp"
#include "mec/allocator.hpp"

namespace dmra {

/// DMRA via the direct solver (the fast path used by benches).
class DmraAllocator final : public Allocator {
 public:
  explicit DmraAllocator(DmraConfig config = {}) : config_(config) {}
  std::string name() const override { return "DMRA"; }
  Allocation allocate(const Scenario& scenario) const override {
    return solve_dmra(scenario, config_).allocation;
  }
  /// Arg-min Eq. 17 preference (price + ρ / remaining) over the
  /// candidates that can serve u now; ties toward the smaller BsId.
  std::optional<BsId> place(const Scenario& scenario, const ResourceState& state,
                            UeId u) const override;

 private:
  DmraConfig config_;
};

/// DMRA via the message-passing runtime — same allocation, with the full
/// protocol cost; used by equivalence tests and the decentralized example.
class DecentralizedDmraAllocator final : public Allocator {
 public:
  explicit DecentralizedDmraAllocator(DmraConfig config = {}) : config_(config) {}
  std::string name() const override { return "DMRA-decentralized"; }
  Allocation allocate(const Scenario& scenario) const override {
    return run_decentralized_dmra(scenario, config_).dmra.allocation;
  }

 private:
  DmraConfig config_;
};

}  // namespace dmra
