#include "baselines/nonco.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "mec/audit.hpp"
#include "mec/resources.hpp"

namespace dmra {

namespace {

/// Max-SINR candidate of u among `cands`; ties toward the smaller id.
std::optional<BsId> best_sinr(const Scenario& scenario, UeId u,
                              const std::vector<BsId>& cands) {
  if (cands.empty()) return std::nullopt;
  BsId best = cands.front();
  for (BsId i : cands)
    if (scenario.link(u, i).sinr > scenario.link(u, best).sinr) best = i;
  return best;
}

/// BS admission: least-RRB-hungry first, then id; admit while feasible.
/// Returns the UEs it rejected.
std::vector<UeId> admit(const Scenario& scenario, ResourceState& state, Allocation& alloc,
                        BsId bs, std::vector<UeId> ues) {
  std::sort(ues.begin(), ues.end(), [&](UeId a, UeId b) {
    return std::make_tuple(scenario.link(a, bs).n_rrbs, a.value) <
           std::make_tuple(scenario.link(b, bs).n_rrbs, b.value);
  });
  std::vector<UeId> rejected;
  for (UeId u : ues) {
    if (!state.can_serve(u, bs)) {
      rejected.push_back(u);
      continue;
    }
    state.commit(u, bs);
    alloc.assign(u, bs);
  }
  return rejected;
}

}  // namespace

std::optional<BsId> NonCoAllocator::place(const Scenario& scenario,
                                          const ResourceState& state, UeId u) const {
  const bool one_shot = mode_ == Mode::kOneShot;
  std::optional<BsId> best;
  for (const BsId i : scenario.candidates(u)) {
    if (!one_shot && !state.can_serve(u, i)) continue;
    if (!best || scenario.link(u, i).sinr > scenario.link(u, *best).sinr) best = i;
  }
  if (one_shot && best && !state.can_serve(u, *best)) return std::nullopt;
  return best;
}

Allocation NonCoAllocator::allocate(const Scenario& scenario) const {
  ResourceState state(scenario);
  Allocation alloc(scenario.num_ues());

  const std::size_t nu = scenario.num_ues();
  std::vector<std::vector<BsId>> b_u(nu);
  for (std::size_t ui = 0; ui < nu; ++ui) {
    const auto cands = scenario.candidates(UeId{static_cast<std::uint32_t>(ui)});
    b_u[ui].assign(cands.begin(), cands.end());
  }

  std::vector<UeId> pending;
  for (std::size_t ui = 0; ui < nu; ++ui) pending.push_back(UeId{static_cast<std::uint32_t>(ui)});

  // One round in one-shot mode; until exhaustion in iterative mode.
  for (std::size_t round = 0; round < nu + 1 && !pending.empty(); ++round) {
    std::map<BsId, std::vector<UeId>> proposals;
    for (UeId u : pending) {
      const auto choice = best_sinr(scenario, u, b_u[u.idx()]);
      if (choice) proposals[*choice].push_back(u);
      // No candidate left → remote cloud (stays unassigned).
    }
    pending.clear();

    for (auto& [bs, ues] : proposals) {
      for (UeId u : admit(scenario, state, alloc, bs, std::move(ues))) {
        if (mode_ == Mode::kOneShot) continue;  // rejected → cloud, no retry
        std::erase(b_u[u.idx()], bs);
        pending.push_back(u);
      }
    }
    std::sort(pending.begin(), pending.end());
    if (DMRA_AUDIT_ACTIVE())
      audit::report_state_round("baselines/nonco", round, scenario, alloc, state);
  }
  return alloc;
}

}  // namespace dmra
