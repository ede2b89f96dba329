#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "core/dmra_allocator.hpp"
#include "mobility/models.hpp"
#include "sim/feasibility.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

// ---- Incremental re-allocation of a moving population ----------------------
// The churn engine's layout: one scenario slot per (UE, position epoch). A
// move retires the old slot and admits the new one against the live
// ledger; the full-rerun policy it is compared with re-solves every epoch.

/// `base`'s population at every position epoch: slot e·n + k is UE k at
/// epochs[e][k].
Scenario epoch_universe(const Scenario& base, const std::vector<std::vector<Point>>& epochs) {
  ScenarioData data;
  data.num_services = base.num_services();
  data.sps.assign(base.sps().begin(), base.sps().end());
  data.bss.assign(base.bss().begin(), base.bss().end());
  for (const std::vector<Point>& positions : epochs) {
    for (std::size_t k = 0; k < positions.size(); ++k) {
      UserEquipment e = base.ue(UeId{static_cast<std::uint32_t>(k)});
      e.id = UeId{static_cast<std::uint32_t>(data.ues.size())};
      e.position = positions[k];
      data.ues.push_back(e);
    }
  }
  data.channel = base.channel();
  data.ofdma = base.ofdma();
  data.pricing = base.pricing();
  data.coverage_radius_m = base.coverage_radius_m();
  return Scenario(std::move(data));
}

struct PolicyOutcome {
  std::size_t live_handovers = 0;   ///< served before and after, other BS
  std::size_t rerun_handovers = 0;
  double live_profit = 0.0;         ///< at the last epoch
  double rerun_profit = 0.0;
};

/// Live incremental moves vs a DMRA re-solve per epoch, over the same
/// epochs. The live allocation is checked feasible after every epoch.
PolicyOutcome compare_policies(const Scenario& base,
                               const std::vector<std::vector<Point>>& epochs) {
  const std::size_t n = base.num_ues();
  const Scenario universe = epoch_universe(base, epochs);
  PolicyOutcome out;
  IncrementalAllocator live(universe);
  for (std::size_t k = 0; k < n; ++k) live.admit(UeId{static_cast<std::uint32_t>(k)});
  Allocation rerun_prev = DmraAllocator().allocate(epoch_universe(base, {epochs[0]}));
  for (std::size_t e = 1; e < epochs.size(); ++e) {
    for (std::size_t k = 0; k < n; ++k) {
      const UeId from{static_cast<std::uint32_t>((e - 1) * n + k)};
      const UeId to{static_cast<std::uint32_t>(e * n + k)};
      const auto was = live.allocation().bs_of(from);
      live.remove(from);
      const auto now = live.admit(to);
      if (was && now && *was != *now) ++out.live_handovers;
    }
    const FeasibilityReport report = check_feasibility(universe, live.allocation());
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
    const Scenario step = epoch_universe(base, {epochs[e]});
    const Allocation rerun = DmraAllocator().allocate(step);
    for (std::size_t k = 0; k < n; ++k) {
      const UeId u{static_cast<std::uint32_t>(k)};
      const auto a = rerun_prev.bs_of(u);
      const auto b = rerun.bs_of(u);
      if (a && b && *a != *b) ++out.rerun_handovers;
    }
    rerun_prev = rerun;
    out.rerun_profit = total_profit(step, rerun);
  }
  out.live_profit = live.live_profit();
  return out;
}

TEST(Incremental, UnchangedScenarioKeepsEverything) {
  // With nobody leaving, capacity only shrinks: a readmit pass over the
  // cloud dwellers changes nothing.
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario s = generate_scenario(cfg, 7);
  IncrementalAllocator inc(s);
  for (std::size_t ui = 0; ui < s.num_ues(); ++ui) inc.admit(UeId{static_cast<std::uint32_t>(ui)});
  const Allocation before = inc.allocation();
  for (std::size_t u = inc.next_cloud_dweller(0); u < s.num_ues(); u = inc.next_cloud_dweller(u + 1))
    EXPECT_FALSE(inc.reattempt(UeId{static_cast<std::uint32_t>(u)}));
  EXPECT_EQ(inc.allocation(), before);
  EXPECT_TRUE(check_feasibility(s, inc.allocation()).ok);
}

TEST(Incremental, StartingFromScratchEqualsPlainDmra) {
  // The default rule is DmraAllocator::place with config.dmra.
  ScenarioConfig cfg;
  cfg.num_ues = 250;
  const Scenario s = generate_scenario(cfg, 9);
  for (const double rho : {0.0, 100.0, 400.0}) {
    IncrementalConfig ic;
    ic.dmra.rho = rho;
    const DmraAllocator plain(ic.dmra);
    IncrementalAllocator by_default(s, ic);
    IncrementalAllocator by_scheme(s, {}, &plain);
    for (std::size_t ui = 0; ui < s.num_ues(); ++ui) {
      const UeId u{static_cast<std::uint32_t>(ui)};
      ASSERT_EQ(by_default.admit(u), by_scheme.admit(u)) << "rho " << rho << " ue " << ui;
    }
    EXPECT_EQ(by_default.live_profit(), by_scheme.live_profit());
  }
}

TEST(Incremental, InvalidatedAssignmentsAreRematched) {
  test::MiniScenario ms;
  const SpId sp = ms.add_sp();
  ms.add_bs(sp, {0, 0});
  ms.add_bs(sp, {400, 0});
  ms.add_ue(sp, {100, 0}, ServiceId{0});
  ms.add_ue(sp, {550, 0}, ServiceId{0});  // the same UE after walking out of BS 0
  const Scenario s = ms.build();
  IncrementalAllocator inc(s);
  EXPECT_EQ(inc.admit(UeId{0}), (BsId{0}));
  inc.remove(UeId{0});
  EXPECT_EQ(inc.admit(UeId{1}), (BsId{1}));
}

TEST(Incremental, FeasibleAcrossManySteps) {
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario base = generate_scenario(cfg, 13);
  std::vector<std::vector<Point>> epochs(6);  // everyone drifts 25 m per step
  for (std::size_t e = 0; e < epochs.size(); ++e)
    for (const UserEquipment& ue : base.ues())
      epochs[e].push_back({ue.position.x + 25.0 * static_cast<double>(e), ue.position.y});
  const PolicyOutcome r = compare_policies(base, epochs);
  EXPECT_GT(r.live_profit, 0.0);
}

TEST(Incremental, HandoverStudyPolicyReducesChurn) {
  // Random-waypoint walkers, six 2 s steps at 8–16 m/s.
  ScenarioConfig cfg;
  cfg.num_ues = 300;
  const Scenario base = generate_scenario(cfg, 3);
  RandomWaypointConfig rw;
  rw.area = cfg.area();
  rw.speed_min_mps = 8.0;
  rw.speed_max_mps = 16.0;
  std::vector<RandomWaypoint> walkers;
  for (const UserEquipment& ue : base.ues())
    walkers.emplace_back(ue.position, rw, Rng("walk", ue.id.value));
  std::vector<std::vector<Point>> epochs(7);
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    for (RandomWaypoint& w : walkers) {
      if (e > 0) w.advance(2.0);
      epochs[e].push_back(w.position());
    }
  }
  const PolicyOutcome r = compare_policies(base, epochs);
  EXPECT_LT(r.live_handovers, r.rerun_handovers);
  EXPECT_GT(r.live_profit, 0.85 * r.rerun_profit);
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
