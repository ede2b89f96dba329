// Allocator::place() — the one-UE rule the churn engine serves every
// scheme with — checked per scheme against a brute-force scan over every
// BS, on random live ledgers with crashed (clamped to zero) and degraded
// (clamped to a fraction) BSs.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "baselines/dcsp.hpp"
#include "baselines/greedy.hpp"
#include "baselines/nonco.hpp"
#include "core/dmra_allocator.hpp"
#include "mec/resources.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

using Brute = std::function<std::optional<BsId>(const Scenario&, const ResourceState&, UeId)>;

/// The eligible BS with the smallest key, scanning every BS in id order
/// (so ties keep the smaller id).
template <typename Eligible, typename Key>
std::optional<BsId> scan(const Scenario& s, Eligible eligible, Key key) {
  std::optional<BsId> best;
  for (const BaseStation& b : s.bss()) {
    if (!eligible(b.id)) continue;
    if (!best || key(b.id) < key(*best)) best = b.id;
  }
  return best;
}

std::optional<BsId> brute_dmra(const Scenario& s, const ResourceState& st, UeId u,
                               double rho) {
  const ServiceId j = s.ue(u).service;
  return scan(s, [&](BsId i) { return st.can_serve(u, i); }, [&](BsId i) {
    return s.price(u, i) +
           rho / static_cast<double>(st.remaining_crus(i, j) + st.remaining_rrbs(i));
  });
}

std::optional<BsId> brute_dcsp(const Scenario& s, const ResourceState& st, UeId u) {
  const ServiceId j = s.ue(u).service;
  return scan(s, [&](BsId i) { return st.can_serve(u, i); }, [&](BsId i) {
    const BaseStation& b = s.bs(i);
    return 1.0 - static_cast<double>(st.remaining_crus(i, j) + st.remaining_rrbs(i)) /
                     static_cast<double>(b.cru_capacity[j.idx()] + b.num_rrbs);
  });
}

/// B_u membership from first principles (coverage, hosted service, radio
/// and CRU demand individually satisfiable), independent of candidates().
bool in_b_u(const Scenario& s, UeId u, BsId i) {
  const UserEquipment& e = s.ue(u);
  const BaseStation& b = s.bs(i);
  const LinkStats& l = s.link(u, i);
  return l.in_coverage && b.hosts(e.service) && l.n_rrbs <= b.num_rrbs &&
         e.cru_demand <= b.cru_capacity[e.service.idx()];
}

std::optional<BsId> brute_nonco(const Scenario& s, const ResourceState& st, UeId u,
                                bool one_shot) {
  const auto best = scan(
      s, [&](BsId i) { return in_b_u(s, u, i) && (one_shot || st.can_serve(u, i)); },
      [&](BsId i) { return -s.link(u, i).sinr; });
  if (one_shot && best && !st.can_serve(u, *best)) return std::nullopt;
  return best;
}

struct SchemeCase {
  std::string label;
  std::function<AllocatorPtr()> make;
  Brute brute;
};

void PrintTo(const SchemeCase& c, std::ostream* os) { *os << c.label; }

class PlaceMatchesBruteForce : public ::testing::TestWithParam<SchemeCase> {};

// Random ledgers: commit random feasible (UE, BS) pairs, crash or degrade
// random BSs, and compare every UE's place() with the scan after each step.
TEST_P(PlaceMatchesBruteForce, OnRandomLedgersWithClampedBss) {
  const AllocatorPtr scheme = GetParam().make();
  ScenarioConfig cfg;
  cfg.num_sps = 2;
  cfg.bss_per_sp = 3;
  cfg.num_ues = 300;
  for (const std::uint64_t seed : {3u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario s = generate_scenario(cfg, seed);
    ResourceState state(s);
    Rng rng("place", seed);
    std::size_t placed = 0, clouded = 0, clamps = 0;
    for (int step = 0; step < 40; ++step) {
      const BsId b{static_cast<std::uint32_t>(rng.index(s.num_bss()))};
      if (step % 10 == 9) {  // crash or degrade: clamp below nominal
        const double f = rng.bernoulli(0.5) ? 0.0 : 0.5;
        std::vector<std::uint32_t> caps(s.num_services());
        for (std::size_t j = 0; j < caps.size(); ++j)
          caps[j] = static_cast<std::uint32_t>(
              f * state.remaining_crus(b, ServiceId{static_cast<std::uint32_t>(j)}));
        state.clamp_remaining(b, caps,
                              static_cast<std::uint32_t>(f * state.remaining_rrbs(b)));
        ++clamps;
      } else {
        for (int k = 0; k < 8; ++k) {
          const UeId u{static_cast<std::uint32_t>(rng.index(s.num_ues()))};
          if (state.can_serve(u, b)) state.commit(u, b);
        }
      }
      for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
        const UeId u{static_cast<std::uint32_t>(ui)};
        const std::optional<BsId> got = scheme->place(s, state, u);
        ASSERT_EQ(got, GetParam().brute(s, state, u)) << "step " << step << " ue " << ui;
        if (got) {
          ASSERT_TRUE(state.can_serve(u, *got));
          ++placed;
        } else {
          ++clouded;
        }
      }
    }
    // The ledgers really exercised both outcomes and the clamps.
    EXPECT_GT(placed, 0u);
    EXPECT_GT(clouded, 0u);
    EXPECT_EQ(clamps, 4u);
  }
}

SchemeCase dmra_case(std::string label, double rho) {
  return {std::move(label), [rho] { return std::make_unique<DmraAllocator>(DmraConfig{.rho = rho}); },
          [rho](const Scenario& s, const ResourceState& st, UeId u) {
            return brute_dmra(s, st, u, rho);
          }};
}

SchemeCase nonco_case(std::string label, NonCoAllocator::Mode mode) {
  return {std::move(label), [mode] { return std::make_unique<NonCoAllocator>(mode); },
          [mode](const Scenario& s, const ResourceState& st, UeId u) {
            return brute_nonco(s, st, u, mode == NonCoAllocator::Mode::kOneShot);
          }};
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PlaceMatchesBruteForce,
    ::testing::Values(dmra_case("DMRA", DmraConfig{}.rho), dmra_case("DMRA_rho400", 400.0),
                      SchemeCase{"DCSP", [] { return std::make_unique<DcspAllocator>(); },
                                 brute_dcsp},
                      nonco_case("NonCo", NonCoAllocator::Mode::kOneShot),
                      nonco_case("NonCoIter", NonCoAllocator::Mode::kIterative)));

TEST(Place, SchemesWithoutARuleThrowNamingThemselves) {
  ScenarioConfig cfg;
  cfg.num_ues = 5;
  const Scenario s = generate_scenario(cfg, 1);
  const ResourceState state(s);
  const GreedyProfitAllocator greedy;
  try {
    (void)greedy.place(s, state, UeId{0});
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(greedy.name()), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace dmra
