#include "core/dmra_allocator.hpp"

namespace dmra {

std::optional<BsId> DmraAllocator::place(const Scenario& scenario,
                                         const ResourceState& state, UeId u) const {
  // Alg. 1 with a single proposer: arg-min Eq. 17 preference over the
  // serviceable candidates; an uncontended BS accepts any feasible
  // proposal, so the first proposal round decides.
  // dmra::hotpath begin(dmra-place)
  const UserEquipment& e = scenario.ue(u);
  const std::span<const BsId> cands = scenario.candidates(u);
  const std::span<const double> prices = scenario.candidate_prices(u);
  const std::span<const std::uint32_t> rrbs = scenario.candidate_rrbs(u);
  std::optional<BsId> best;
  double best_v = 0.0;
  for (std::size_t k = 0; k < cands.size(); ++k) {
    const BsId i = cands[k];
    const std::uint32_t rem_cru = state.remaining_crus(i, e.service);
    const std::uint32_t rem_rrb = state.remaining_rrbs(i);
    if (rem_cru < e.cru_demand || rem_rrb < rrbs[k]) continue;
    const double v = preference_value(prices[k], rem_cru, rem_rrb, config_.rho);
    // Ties break toward the smaller BsId — candidates are ascending, so
    // strict < keeps the earlier (smaller) one.
    if (!best || v < best_v) {
      best = i;
      best_v = v;
    }
  }
  // dmra::hotpath end(dmra-place)
  return best;
}

}  // namespace dmra
