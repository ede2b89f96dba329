#include "baselines/dcsp.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "mec/audit.hpp"

namespace dmra {

std::optional<BsId> DcspAllocator::place(const Scenario& scenario,
                                         const ResourceState& state, UeId u) const {
  const ServiceId j = scenario.ue(u).service;
  std::optional<BsId> best;
  double best_occ = 0.0;
  for (const BsId i : scenario.candidates(u)) {
    if (!state.can_serve(u, i)) continue;
    const BaseStation& b = scenario.bs(i);
    const double cap = static_cast<double>(b.cru_capacity[j.idx()] + b.num_rrbs);
    const double rem =
        static_cast<double>(state.remaining_crus(i, j) + state.remaining_rrbs(i));
    const double occ = 1.0 - rem / cap;
    // Candidates are ascending, so strict < keeps the smaller id on ties.
    if (!best || occ < best_occ) {
      best = i;
      best_occ = occ;
    }
  }
  return best;
}

Allocation DcspAllocator::allocate(const Scenario& scenario) const {
  ResourceState state(scenario);
  Allocation alloc(scenario.num_ues());

  const std::size_t nu = scenario.num_ues();
  std::vector<bool> done(nu, false);  // matched or sent to cloud

  for (std::size_t round = 0; round < nu + 1; ++round) {
    // UE proposals: lowest-occupancy feasible candidate. Capacity only
    // falls inside one allocate(), so a UE with none is done for good.
    std::map<BsId, std::vector<UeId>> proposals;
    for (std::size_t ui = 0; ui < nu; ++ui) {
      if (done[ui]) continue;
      const UeId u{static_cast<std::uint32_t>(ui)};
      const std::optional<BsId> choice = place(scenario, state, u);
      if (!choice) {
        done[ui] = true;  // candidates exhausted → remote cloud
        continue;
      }
      proposals[*choice].push_back(u);
    }
    if (proposals.empty()) break;

    // BS acceptance: fewest covering BSs first, then least radio, then id;
    // accept greedily while resources remain.
    for (auto& [bs, ues] : proposals) {
      std::sort(ues.begin(), ues.end(), [&](UeId a, UeId b) {
        const auto ka = std::make_tuple(scenario.coverage_count(a),
                                        scenario.link(a, bs).n_rrbs, a.value);
        const auto kb = std::make_tuple(scenario.coverage_count(b),
                                        scenario.link(b, bs).n_rrbs, b.value);
        return ka < kb;
      });
      for (UeId u : ues) {
        if (!state.can_serve(u, bs)) continue;  // rejected → next round
        state.commit(u, bs);
        alloc.assign(u, bs);
        done[u.idx()] = true;
      }
    }
    if (DMRA_AUDIT_ACTIVE())
      audit::report_state_round("baselines/dcsp", round, scenario, alloc, state);
  }
  return alloc;
}

}  // namespace dmra
