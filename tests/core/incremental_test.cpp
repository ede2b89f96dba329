#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "core/dmra_allocator.hpp"
#include "mobility/handover.hpp"
#include "sim/feasibility.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

Scenario moved_copy(const Scenario& base, double dx) {
  ScenarioData data;
  data.num_services = base.num_services();
  data.sps.assign(base.sps().begin(), base.sps().end());
  data.bss.assign(base.bss().begin(), base.bss().end());
  data.ues.assign(base.ues().begin(), base.ues().end());
  for (auto& ue : data.ues) ue.position.x += dx;
  data.channel = base.channel();
  data.ofdma = base.ofdma();
  data.pricing = base.pricing();
  data.coverage_radius_m = base.coverage_radius_m();
  return Scenario(std::move(data));
}

TEST(Incremental, UnchangedScenarioKeepsEverything) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario s = generate_scenario(cfg, 7);
  const Allocation previous = DmraAllocator().allocate(s);
  const IncrementalResult r = solve_incremental_dmra(s, previous);
  EXPECT_EQ(r.allocation, previous);
  EXPECT_EQ(r.kept, previous.num_served());
  EXPECT_EQ(r.invalidated, 0u);
  EXPECT_EQ(r.released, 0u);
}

TEST(Incremental, StartingFromScratchEqualsPlainDmra) {
  ScenarioConfig cfg;
  cfg.num_ues = 250;
  const Scenario s = generate_scenario(cfg, 9);
  const IncrementalResult r = solve_incremental_dmra(s, Allocation(s.num_ues()));
  EXPECT_EQ(r.allocation, solve_dmra(s).allocation);
  EXPECT_EQ(r.kept, 0u);
}

TEST(Incremental, SmallMovesProduceFewerHandoversThanRerun) {
  ScenarioConfig cfg;
  cfg.num_ues = 500;
  const Scenario before = generate_scenario(cfg, 11);
  const Allocation prev = DmraAllocator().allocate(before);
  const Scenario after = moved_copy(before, 15.0);  // everyone drifts 15 m

  const Allocation rerun = DmraAllocator().allocate(after);
  const IncrementalResult inc = solve_incremental_dmra(after, prev);

  auto handovers = [&](const Allocation& now) {
    std::size_t n = 0;
    for (std::size_t ui = 0; ui < after.num_ues(); ++ui) {
      const UeId u{static_cast<std::uint32_t>(ui)};
      const auto a = prev.bs_of(u);
      const auto b = now.bs_of(u);
      if (a && b && *a != *b) ++n;
    }
    return n;
  };
  EXPECT_LT(handovers(inc.allocation), handovers(rerun));
  EXPECT_TRUE(check_feasibility(after, inc.allocation).ok);
  // Staying costs little profit relative to the full re-optimization.
  EXPECT_GT(total_profit(after, inc.allocation), 0.9 * total_profit(after, rerun));
}

TEST(Incremental, InvalidatedAssignmentsAreRematched) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_bs(sp, {400, 0});
  ms.add_ue(sp, {100, 0}, ServiceId{0});
  const Scenario before = ms.build();
  Allocation prev(1);
  prev.assign(UeId{0}, BsId{0});
  // The UE walks out of BS 0's coverage but stays in BS 1's.
  const Scenario after = moved_copy(before, 450.0);  // at x=550: d0=550, d1=150
  const IncrementalResult r = solve_incremental_dmra(after, prev);
  EXPECT_EQ(r.invalidated, 1u);
  EXPECT_EQ(r.allocation.bs_of(UeId{0}), (BsId{1}));
}

TEST(Incremental, HysteresisReleasesDriftedUes) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_bs(sp, {480, 0});
  ms.add_ue(sp, {40, 0}, ServiceId{0});
  const Scenario before = ms.build();
  Allocation prev(1);
  prev.assign(UeId{0}, BsId{0});
  // Drift close to BS 1: current price (d=400) far above best (d=80).
  const Scenario after = moved_copy(before, 360.0);

  // Without hysteresis (default): sticky.
  const IncrementalResult sticky = solve_incremental_dmra(after, prev);
  EXPECT_EQ(sticky.allocation.bs_of(UeId{0}), (BsId{0}));

  // With a modest margin the drift exceeds it → switch.
  IncrementalConfig cfg;
  cfg.hysteresis_margin = 0.5;  // price gap is σ·Δd·b = 0.003·360 ≈ 1.08
  const IncrementalResult agile = solve_incremental_dmra(after, prev, cfg);
  EXPECT_EQ(agile.released, 1u);
  EXPECT_EQ(agile.allocation.bs_of(UeId{0}), (BsId{1}));
}

TEST(Incremental, FeasibleAcrossManySteps) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  Scenario scenario = generate_scenario(cfg, 13);
  Allocation alloc = DmraAllocator().allocate(scenario);
  for (int step = 1; step <= 5; ++step) {
    scenario = moved_copy(scenario, 25.0);
    const IncrementalResult r = solve_incremental_dmra(scenario, alloc);
    const FeasibilityReport report = check_feasibility(scenario, r.allocation);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
    alloc = r.allocation;
  }
}

TEST(Incremental, HandoverStudyPolicyReducesChurn) {
  HandoverConfig cfg;
  cfg.scenario.num_ues = 300;
  cfg.mobility = MobilityKind::kRandomWaypoint;
  cfg.waypoint.speed_min_mps = 8.0;
  cfg.waypoint.speed_max_mps = 16.0;
  cfg.steps = 6;
  cfg.step_duration_s = 2.0;
  cfg.seed = 3;

  const DmraAllocator algo;
  const HandoverResult rerun = run_handover_study(cfg, algo);
  cfg.policy = ReallocationPolicy::kIncremental;
  const HandoverResult incremental = run_handover_study(cfg, algo);

  EXPECT_LT(incremental.handover_rate, rerun.handover_rate);
  EXPECT_GT(incremental.mean_profit, 0.85 * rerun.mean_profit);
}

TEST(Incremental, SizeMismatchIsContractViolation) {
  ScenarioConfig cfg;
  cfg.num_ues = 10;
  const Scenario s = generate_scenario(cfg, 1);
  EXPECT_THROW(solve_incremental_dmra(s, Allocation(9)), ContractViolation);
}

// ---- IncrementalAllocator: the persistent admit/remove surface -------------

// The header's claim: admit() (single-proposer Alg. 1) decides exactly
// what solve_dmra_partial computes for one unmatched UE against the same
// ledger. Run both side by side, one admission at a time.
TEST(IncrementalAllocator, AdmitMatchesSolveDmraPartialSingleProposer) {
  ScenarioConfig cfg;
  cfg.num_ues = 150;
  const Scenario s = generate_scenario(cfg, 21);

  IncrementalAllocator inc(s);
  ResourceState state(s);
  Allocation ref(s.num_ues());
  std::vector<bool> matched(s.num_ues(), true);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    inc.admit(u);
    matched[ui] = false;
    solve_dmra_partial(s, IncrementalConfig{}.dmra, state, ref, matched);
    matched[ui] = true;  // cloud-forwarded UEs stay unmatched in the partial run
    ASSERT_EQ(inc.allocation().bs_of(u), ref.bs_of(u)) << "ue " << ui;
  }
  EXPECT_EQ(inc.allocation(), ref);
  EXPECT_NEAR(inc.live_profit(), total_profit(s, inc.allocation()), 1e-9);
}

TEST(IncrementalAllocator, RemoveReleasesEverything) {
  ScenarioConfig cfg;
  cfg.num_ues = 120;
  const Scenario s = generate_scenario(cfg, 23);
  IncrementalAllocator inc(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    inc.admit(UeId{static_cast<std::uint32_t>(ui)});
  EXPECT_EQ(inc.num_active(), s.num_ues());
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    inc.remove(UeId{static_cast<std::uint32_t>(ui)});
  EXPECT_EQ(inc.num_active(), 0u);
  EXPECT_NEAR(inc.live_profit(), 0.0, 1e-9);
  // The ledger is back at nominal capacity for every (BS, service).
  const ResourceState fresh(s);
  for (const BaseStation& b : s.bss()) {
    EXPECT_EQ(inc.state().remaining_rrbs(b.id), fresh.remaining_rrbs(b.id));
    for (std::size_t j = 0; j < s.num_services(); ++j) {
      const ServiceId sj{static_cast<std::uint32_t>(j)};
      EXPECT_EQ(inc.state().remaining_crus(b.id, sj), fresh.remaining_crus(b.id, sj));
    }
  }
}

TEST(IncrementalAllocator, LifecycleContractsAreEnforced) {
  ScenarioConfig cfg;
  cfg.num_ues = 10;
  const Scenario s = generate_scenario(cfg, 1);
  IncrementalAllocator inc(s);
  EXPECT_THROW(inc.remove(UeId{0}), ContractViolation);     // not active
  EXPECT_THROW(inc.reattempt(UeId{0}), ContractViolation);  // not active
  inc.admit(UeId{0});
  EXPECT_THROW(inc.admit(UeId{0}), ContractViolation);  // already active
  if (inc.allocation().bs_of(UeId{0})) {
    EXPECT_THROW(inc.reattempt(UeId{0}), ContractViolation);  // served, not cloud
  }
  inc.remove(UeId{0});
  EXPECT_THROW(inc.remove(UeId{0}), ContractViolation);
}

TEST(IncrementalAllocator, CrashEvictsAndRecoverRestoresNominal) {
  ScenarioConfig cfg;
  cfg.num_ues = 200;
  const Scenario s = generate_scenario(cfg, 29);
  IncrementalAllocator inc(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    inc.admit(UeId{static_cast<std::uint32_t>(ui)});

  // Crash the busiest BS so the eviction set is non-empty.
  BsId victim{0};
  std::size_t best = 0;
  std::vector<std::size_t> load(s.bss().size(), 0);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    if (const auto b = inc.allocation().bs_of(UeId{static_cast<std::uint32_t>(ui)}))
      ++load[b->idx()];
  for (std::size_t bi = 0; bi < load.size(); ++bi)
    if (load[bi] > best) best = load[bi], victim = BsId{static_cast<std::uint32_t>(bi)};
  ASSERT_GT(best, 0u);

  std::vector<UeId> orphans;
  const std::size_t evicted = inc.crash_bs(victim, orphans);
  EXPECT_EQ(evicted, best);
  EXPECT_EQ(orphans.size(), best);
  EXPECT_FALSE(inc.capacity_nominal());
  for (const UeId u : orphans) {
    EXPECT_TRUE(inc.active(u));                     // evicted, not departed
    EXPECT_TRUE(inc.allocation().is_cloud(u));      // waiting at the cloud
  }
  for (std::size_t j = 0; j < s.num_services(); ++j)
    EXPECT_EQ(inc.state().remaining_crus(victim, ServiceId{static_cast<std::uint32_t>(j)}), 0u);
  EXPECT_EQ(inc.state().remaining_rrbs(victim), 0u);

  // Departing a UE during the outage must not leak capacity back into the
  // clamped BS (the orphan now lives at the cloud anyway).
  inc.remove(orphans[0]);

  inc.recover_bs(victim);
  EXPECT_TRUE(inc.capacity_nominal());
  // Recovered capacity is nominal minus live commitments (none here).
  const ResourceState fresh(s);
  EXPECT_EQ(inc.state().remaining_rrbs(victim), fresh.remaining_rrbs(victim));

  // Orphans re-placed via reattempt() land somewhere feasible again.
  std::size_t rehomed = 0;
  for (std::size_t k = 1; k < orphans.size(); ++k)
    if (inc.reattempt(orphans[k])) ++rehomed;
  EXPECT_GT(rehomed, 0u);
  EXPECT_TRUE(check_feasibility(s, inc.allocation()).ok);
  EXPECT_NEAR(inc.live_profit(), total_profit(s, inc.allocation()), 1e-9);
}

TEST(IncrementalAllocator, DegradeScalesRemainingAndRecoverRecounts) {
  ScenarioConfig cfg;
  cfg.num_ues = 100;
  const Scenario s = generate_scenario(cfg, 31);
  IncrementalAllocator inc(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui)
    inc.admit(UeId{static_cast<std::uint32_t>(ui)});
  const BsId target{0};
  const std::uint32_t rrbs_before = inc.state().remaining_rrbs(target);
  inc.degrade_bs(target, 0.5, 0.5);
  EXPECT_FALSE(inc.capacity_nominal());
  EXPECT_LE(inc.state().remaining_rrbs(target), rrbs_before / 2 + 1);
  inc.recover_bs(target);
  EXPECT_TRUE(inc.capacity_nominal());
  // Post-recovery the ledger equals a from-scratch recount: remaining =
  // nominal − commitments of the UEs still assigned there.
  ResourceState recount(s);
  recount.recount_remaining(target, inc.allocation());
  EXPECT_EQ(inc.state().remaining_rrbs(target), recount.remaining_rrbs(target));
  for (std::size_t j = 0; j < s.num_services(); ++j) {
    const ServiceId sj{static_cast<std::uint32_t>(j)};
    EXPECT_EQ(inc.state().remaining_crus(target, sj), recount.remaining_crus(target, sj));
  }
}

// ---- The cloud-dweller index -----------------------------------------------

/// The reference the index must agree with: a full scan for active,
/// cloud-forwarded slots.
std::vector<std::size_t> cloud_dwellers_by_scan(const IncrementalAllocator& inc) {
  std::vector<std::size_t> out;
  for (std::size_t ui = 0; ui < inc.scenario().num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    if (inc.active(u) && inc.allocation().is_cloud(u)) out.push_back(ui);
  }
  return out;
}

std::vector<std::size_t> cloud_dwellers_by_index(const IncrementalAllocator& inc) {
  std::vector<std::size_t> out;
  const std::size_t n = inc.scenario().num_ues();
  for (std::size_t u = inc.next_cloud_dweller(0); u < n; u = inc.next_cloud_dweller(u + 1))
    out.push_back(u);
  return out;
}

/// The index walk, its count, and every starting point agree with the scan.
void expect_index_matches_scan(const IncrementalAllocator& inc) {
  const std::vector<std::size_t> want = cloud_dwellers_by_scan(inc);
  ASSERT_EQ(cloud_dwellers_by_index(inc), want);
  ASSERT_EQ(inc.num_cloud_dwellers(), want.size());
  const std::size_t n = inc.scenario().num_ues();
  for (std::size_t from = 0; from <= n + 1; ++from) {
    const auto it = std::lower_bound(want.begin(), want.end(), from);
    ASSERT_EQ(inc.next_cloud_dweller(from), it == want.end() ? n : *it) << "from " << from;
  }
}

// Random admit / remove / reattempt / crash / recover / degrade sequences
// on a deployment small enough (4 BSs) that many admissions land in the
// cloud; the index is checked against the scan after every operation.
TEST(IncrementalAllocator, CloudDwellerIndexMatchesBruteForceScan) {
  ScenarioConfig cfg;
  cfg.num_sps = 2;
  cfg.bss_per_sp = 2;
  cfg.num_ues = 300;
  for (const std::uint64_t seed : {41u, 43u, 47u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario s = generate_scenario(cfg, seed);
    IncrementalAllocator inc(s);
    Rng rng("cloud-index", seed);
    std::vector<UeId> orphans;
    std::size_t peak = 0, reattempts = 0, crashes = 0, degrades = 0, recovers = 0;
    for (int step = 0; step < 2000; ++step) {
      const UeId u{static_cast<std::uint32_t>(rng.index(s.num_ues()))};
      const BsId b{static_cast<std::uint32_t>(rng.index(s.num_bss()))};
      switch (rng.index(20)) {
        case 0: inc.crash_bs(b, orphans); ++crashes; break;
        case 1: inc.degrade_bs(b, 0.5, 0.5); ++degrades; break;
        case 2: case 3: inc.recover_bs(b); ++recovers; break;
        default: {
          if (!inc.active(u)) {
            inc.admit(u);
          } else if (inc.allocation().is_cloud(u) && rng.bernoulli(0.5)) {
            inc.reattempt(u);
            ++reattempts;
          } else {
            inc.remove(u);
          }
        }
      }
      expect_index_matches_scan(inc);
      if (HasFatalFailure()) return;
      peak = std::max(peak, inc.num_cloud_dwellers());
    }
    // The sequence really exercised the index and every operation.
    EXPECT_GT(peak, 10u);
    EXPECT_GT(reattempts, 0u);
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(degrades, 0u);
    EXPECT_GT(recovers, 0u);
    EXPECT_FALSE(orphans.empty());
  }
}

TEST(IncrementalAllocator, CloudDwellerIndexOnEmptyUniverse) {
  ScenarioConfig cfg;
  cfg.num_ues = 0;
  const Scenario s = generate_scenario(cfg, 1);
  const IncrementalAllocator inc(s);
  EXPECT_EQ(inc.num_cloud_dwellers(), 0u);
  EXPECT_EQ(inc.next_cloud_dweller(0), 0u);
  EXPECT_EQ(inc.next_cloud_dweller(64), 0u);
}

// Cloud dwellers on both sides of the 64-bit word boundaries (63 | 64,
// 127 | 128), queried from each side and from num_ues() and beyond.
TEST(IncrementalAllocator, CloudDwellerIndexAtWordBoundaries) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  constexpr std::size_t kSlots = 130;
  for (std::size_t ui = 0; ui < kSlots; ++ui) {
    const bool uncovered = ui == 63 || ui == 64 || ui == 127;
    ms.add_ue(sp, {uncovered ? 5000.0 : 50.0, 0.0}, ServiceId{0}, 1);
  }
  const Scenario s = ms.build();
  IncrementalAllocator inc(s);
  for (const std::uint32_t ui : {0u, 63u, 64u, 127u, 129u}) inc.admit(UeId{ui});
  ASSERT_TRUE(inc.allocation().bs_of(UeId{0}).has_value());
  ASSERT_TRUE(inc.allocation().bs_of(UeId{129}).has_value());
  EXPECT_EQ(cloud_dwellers_by_index(inc), (std::vector<std::size_t>{63, 64, 127}));
  EXPECT_EQ(inc.next_cloud_dweller(0), 63u);
  EXPECT_EQ(inc.next_cloud_dweller(63), 63u);
  EXPECT_EQ(inc.next_cloud_dweller(64), 64u);
  EXPECT_EQ(inc.next_cloud_dweller(65), 127u);
  EXPECT_EQ(inc.next_cloud_dweller(127), 127u);
  EXPECT_EQ(inc.next_cloud_dweller(128), kSlots);
  EXPECT_EQ(inc.next_cloud_dweller(kSlots), kSlots);
  EXPECT_EQ(inc.next_cloud_dweller(kSlots + 1000), kSlots);
  EXPECT_FALSE(inc.reattempt(UeId{127}));  // a failed retry keeps the bit
  inc.remove(UeId{64});
  EXPECT_EQ(inc.next_cloud_dweller(64), 127u);
  expect_index_matches_scan(inc);
}

}  // namespace
}  // namespace dmra
