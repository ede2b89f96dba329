// NonCo — the non-collaborative baseline of the DMRA paper's §VI-B:
//
//   "With NonCo, each UE proposes to BS with the maximum SINR in the
//    uplink channel. Each BS prefers to be associated with the UE
//    consuming the least number of RRBs. The collaboration of BSs is not
//    taken into consideration."
//
// No prices, no SP ownership, no load awareness: pure radio greed.
//
// The paper describes no iteration for NonCo (unlike DCSP), so the
// default is a single proposal round: a UE rejected by its max-SINR BS
// goes to the cloud. `Mode::kIterative` implements the alternative
// reading — rejected UEs retry their next-best-SINR candidate until
// their options run out — used by bench abl4 to show how much of DMRA's
// advantage survives against a collaborative max-SINR scheme.
#pragma once

#include "mec/allocator.hpp"

namespace dmra {

class NonCoAllocator final : public Allocator {
 public:
  enum class Mode {
    kOneShot,    ///< single proposal round (default; paper-literal)
    kIterative,  ///< rejected UEs fall through their SINR-ordered list
  };

  explicit NonCoAllocator(Mode mode = Mode::kOneShot) : mode_(mode) {}

  std::string name() const override {
    return mode_ == Mode::kOneShot ? "NonCo" : "NonCo-iter";
  }
  Allocation allocate(const Scenario& scenario) const override;
  /// One-shot: the max-SINR candidate if it can serve u now, else the
  /// cloud. Iterative: the max-SINR candidate that can serve u now.
  /// SINR ties break toward the smaller BsId in both modes.
  std::optional<BsId> place(const Scenario& scenario, const ResourceState& state,
                            UeId u) const override;

 private:
  Mode mode_;
};

}  // namespace dmra
