#include "core/decentralized.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/dmra_allocator.hpp"
#include "core/protocol.hpp"
#include "core/solver.hpp"
#include "sim/feasibility.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

TEST(Decentralized, TinyScenarioMatchesDirectSolver) {
  const Scenario s = test::two_bs_scenario(4);
  const DmraResult direct = solve_dmra(s);
  const DecentralizedResult dec = run_decentralized_dmra(s);
  EXPECT_EQ(dec.dmra.allocation, direct.allocation);
  EXPECT_EQ(dec.dmra.rounds, direct.rounds);
  EXPECT_EQ(dec.dmra.proposals_sent, direct.proposals_sent);
  EXPECT_EQ(dec.dmra.rejections, direct.rejections);
}

// The central claim: the message-passing protocol computes exactly the
// allocation of the in-memory solver, across sizes, seeds, and configs.
class EquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(EquivalenceProperty, ProtocolEqualsDirectSolver) {
  const auto [ues, seed, rho] = GetParam();
  ScenarioConfig cfg;
  cfg.num_ues = static_cast<std::size_t>(ues);
  const Scenario s = generate_scenario(cfg, static_cast<std::uint64_t>(seed));
  const DmraConfig dc{.rho = rho};
  const DmraResult direct = solve_dmra(s, dc);
  const DecentralizedResult dec = run_decentralized_dmra(s, dc);
  EXPECT_EQ(dec.dmra.allocation, direct.allocation);
  EXPECT_EQ(dec.dmra.rounds, direct.rounds);
  EXPECT_EQ(dec.dmra.proposals_sent, direct.proposals_sent);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalenceProperty,
                         ::testing::Combine(::testing::Values(30, 150, 500),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(0.0, 100.0, 1000.0)));

TEST(Decentralized, EquivalentUnderEveryScenarioFlavour) {
  // The equivalence must hold for every scenario feature, not only the
  // paper defaults: random placement, shadowed channels, hotspot
  // populations, Zipf services, per-BS price multipliers.
  struct Flavour {
    const char* label;
    ScenarioConfig cfg;
  };
  std::vector<Flavour> flavours;
  {
    ScenarioConfig cfg;
    cfg.num_ues = 250;
    cfg.placement = PlacementMethod::kRandom;
    flavours.push_back({"random placement", cfg});
  }
  {
    ScenarioConfig cfg;
    cfg.num_ues = 250;
    cfg.channel.shadowing_sigma_db = 6.0;
    cfg.channel.shadowing_seed = 4;
    flavours.push_back({"shadowing", cfg});
  }
  {
    ScenarioConfig cfg;
    cfg.num_ues = 250;
    cfg.ue_distribution = UeDistribution::kHotspots;
    cfg.service_popularity = ServicePopularity::kZipf;
    flavours.push_back({"hotspots+zipf", cfg});
  }
  {
    ScenarioConfig cfg;
    cfg.num_ues = 250;
    cfg.channel.pathloss_model = PathlossModel::kLteMacro;
    flavours.push_back({"lte-macro pathloss", cfg});
  }
  for (const Flavour& f : flavours) {
    const Scenario s = generate_scenario(f.cfg, 21);
    EXPECT_EQ(run_decentralized_dmra(s).dmra.allocation, solve_dmra(s).allocation)
        << f.label;
  }
}

TEST(Decentralized, EquivalentUnderPriceMultipliers) {
  ScenarioConfig cfg;
  cfg.num_ues = 200;
  const Scenario base = generate_scenario(cfg, 23);
  ScenarioData data;
  data.num_services = base.num_services();
  data.sps.assign(base.sps().begin(), base.sps().end());
  data.bss.assign(base.bss().begin(), base.bss().end());
  for (std::size_t i = 0; i < data.bss.size(); ++i)
    data.bss[i].price_multiplier = 0.8 + 0.05 * static_cast<double>(i % 10);
  data.ues.assign(base.ues().begin(), base.ues().end());
  data.channel = base.channel();
  data.ofdma = base.ofdma();
  data.pricing = base.pricing();
  data.coverage_radius_m = base.coverage_radius_m();
  const Scenario s(std::move(data));
  EXPECT_EQ(run_decentralized_dmra(s).dmra.allocation, solve_dmra(s).allocation);
}

TEST(Decentralized, EquivalentUnderAblationConfigs) {
  ScenarioConfig cfg;
  cfg.num_ues = 200;
  const Scenario s = generate_scenario(cfg, 7);
  for (const DmraConfig dc : {DmraConfig{.prefer_same_sp = false},
                              DmraConfig{.use_coverage_count = false},
                              DmraConfig{.drop_rejected = true}}) {
    EXPECT_EQ(run_decentralized_dmra(s, dc).dmra.allocation,
              solve_dmra(s, dc).allocation);
  }
}

TEST(Decentralized, BusTrafficIsAccounted) {
  ScenarioConfig cfg;
  cfg.num_ues = 100;
  const Scenario s = generate_scenario(cfg, 11);
  const DecentralizedResult r = run_decentralized_dmra(s);
  EXPECT_GT(r.bus.messages_sent, 0u);
  EXPECT_EQ(r.bus.messages_sent, r.bus.messages_delivered);
  // Each DMRA iteration is 4 bus rounds plus the bootstrap broadcast and
  // the final empty round that detects quiescence.
  EXPECT_GE(r.bus.rounds, 4 * r.dmra.rounds + 1);
  // Every proposal travels UE→SP→BS and is answered BS→SP→UE: at least
  // four messages per proposal, plus broadcasts.
  EXPECT_GT(r.bus.messages_sent, 4 * r.dmra.proposals_sent);
}

TEST(Decentralized, FeasibleOnItsOwn) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario s = generate_scenario(cfg, 13);
  const DecentralizedResult r = run_decentralized_dmra(s);
  EXPECT_TRUE(check_feasibility(s, r.dmra.allocation).ok);
}

TEST(Decentralized, HandlesUncoverableUes) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_ue(sp, {5000, 5000}, ServiceId{0});
  const Scenario s = ms.build();
  const DecentralizedResult r = run_decentralized_dmra(s);
  EXPECT_TRUE(r.dmra.allocation.is_cloud(UeId{0}));
  EXPECT_EQ(r.dmra.rounds, 0u);
}

TEST(Decentralized, AllocatorAdapterMatchesRuntime) {
  ScenarioConfig cfg;
  cfg.num_ues = 120;
  const Scenario s = generate_scenario(cfg, 19);
  const DecentralizedDmraAllocator adapter;
  EXPECT_EQ(adapter.allocate(s), run_decentralized_dmra(s).dmra.allocation);
  EXPECT_EQ(adapter.name(), "DMRA-decentralized");
}

// The runtime's broadcast snapshots: one stamp-checked read returns the
// UE's service CRUs and the RRBs; the capacity rounds up to a power of
// two; a snapshot overwritten before it is read is a loud contract
// violation, never a stale view.
TEST(SnapshotRing, ReadsBothLevelsAndRejectsAnEvictedSnapshot) {
  protocol_detail::SnapshotRing ring(/*num_services=*/3, /*capacity=*/3);  // holds 4
  BsLocalResources r;
  r.crus = {10, 20, 30};
  std::vector<std::uint32_t> ids;
  for (std::uint32_t k = 0; k < 4; ++k) {
    r.crus[1] = 20 + k;
    r.rrbs = 7 + k;
    ids.push_back(ring.publish(r));
  }
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(ids[k], k);
    EXPECT_EQ(ring.read(ids[k], 0).crus, 10u);
    EXPECT_EQ(ring.read(ids[k], 1).crus, 20u + k);
    EXPECT_EQ(ring.read(ids[k], 2).crus, 30u);
    EXPECT_EQ(ring.read(ids[k], 1).rrbs, 7u + k);
  }
  ring.publish(r);  // the fifth snapshot takes the first one's slot
  EXPECT_THROW(ring.read(ids[0], 0), ContractViolation);
  EXPECT_EQ(ring.read(ids[1], 1).crus, 21u);
  EXPECT_THROW(ring.read(/*snapshot=*/9, 0), ContractViolation);  // never published
}

}  // namespace
}  // namespace dmra
