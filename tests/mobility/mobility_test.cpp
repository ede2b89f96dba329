#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "baselines/dcsp.hpp"
#include "baselines/nonco.hpp"
#include "check/invariant_auditor.hpp"
#include "core/dmra_allocator.hpp"
#include "mec/audit.hpp"
#include "mobility/models.hpp"
#include "sim/churn.hpp"
#include "sim/feasibility.hpp"
#include "util/require.hpp"

namespace dmra {
namespace {

const Rect kArea{0, 0, 1200, 1200};

Point grid_point(std::size_t i) {
  return {100.0 + 10.0 * static_cast<double>(i % 30),
          100.0 + 10.0 * static_cast<double>(i / 30)};
}

TEST(RandomWaypoint, MovesEveryoneWithinBounds) {
  RandomWaypointConfig cfg;
  cfg.area = kArea;
  for (std::size_t i = 0; i < 50; ++i) {
    RandomWaypoint walker(grid_point(i), cfg, Rng("rw", i));
    walker.advance(10.0);
    EXPECT_FALSE(walker.position() == grid_point(i));  // no pause → in motion
    EXPECT_TRUE(kArea.contains(walker.position()));
  }
}

TEST(RandomWaypoint, SpeedBoundsRespected) {
  RandomWaypointConfig cfg;
  cfg.area = kArea;
  cfg.speed_min_mps = 2.0;
  cfg.speed_max_mps = 4.0;
  const double dt = 1.0;
  for (std::size_t i = 0; i < 40; ++i) {
    RandomWaypoint walker(grid_point(i), cfg, Rng("rw", 100 + i));
    for (int step = 0; step < 20; ++step) {
      const Point before = walker.position();
      walker.advance(dt);
      // Waypoint arrivals + re-targeting can shorten a step, never extend it.
      EXPECT_LE(distance_m(before, walker.position()), cfg.speed_max_mps * dt + 1e-9);
    }
  }
}

TEST(RandomWaypoint, PauseHoldsPosition) {
  RandomWaypointConfig cfg;
  cfg.area = Rect{0, 0, 10, 10};  // tiny area → waypoints reached instantly
  cfg.pause_s = 1e9;              // then pause ~forever
  RandomWaypoint walker({5, 5}, cfg, Rng("rw", 3));
  walker.advance(100.0);  // reaches the first waypoint and parks
  const Point parked = walker.position();
  walker.advance(100.0);
  EXPECT_EQ(walker.position(), parked);
}

TEST(RandomWaypoint, DeterministicPerSeed) {
  RandomWaypointConfig cfg;
  cfg.area = kArea;
  RandomWaypoint a(grid_point(0), cfg, Rng("rw", 7));
  RandomWaypoint b(grid_point(0), cfg, Rng("rw", 7));
  a.advance(5.0);
  b.advance(5.0);
  EXPECT_EQ(a.position(), b.position());
}

TEST(Models, Contracts) {
  RandomWaypointConfig bad;
  bad.speed_min_mps = 0.0;
  EXPECT_THROW(RandomWaypoint(grid_point(0), bad, Rng("x", 1)), ContractViolation);
  bad.speed_min_mps = 5.0;
  bad.speed_max_mps = 4.0;
  EXPECT_THROW(RandomWaypoint(grid_point(0), bad, Rng("x", 1)), ContractViolation);
  RandomWaypoint walker(grid_point(0), RandomWaypointConfig{}, Rng("x", 1));
  EXPECT_THROW(walker.advance(-1.0), ContractViolation);
}

// ---- handover under the churn engine ----------------------------------------
// Moving UEs re-associate through sim/churn's move events: the old slot
// retires and the new position is placed against the live ledger.

/// A 250-UE steady state in which every UE moves every 2 s on average.
ChurnConfig study_config(double speed_min, double speed_max) {
  ChurnConfig cfg;
  cfg.mean_dwell_s = 60.0;
  cfg.arrival_rate_hz = 250.0 / cfg.mean_dwell_s;
  cfg.prefill = 250;
  cfg.horizon_events = 250 + 1500;
  cfg.mean_move_interval_s = 2.0;
  cfg.waypoint.speed_min_mps = speed_min;
  cfg.waypoint.speed_max_mps = speed_max;
  cfg.seed = 3;
  return cfg;
}

const DmraAllocator kDmra;
const DcspAllocator kDcsp;
const NonCoAllocator kNonCo;
const Allocator* const kSchemes[] = {nullptr, &kDmra, &kDcsp, &kNonCo};

std::string scheme_name(const Allocator* scheme) {
  return scheme == nullptr ? "default" : scheme->name();
}

// The static model: with moves off, every UE keeps its one slot.
TEST(StaticModel, NeverMoves) {
  ChurnConfig cfg = study_config(5.0, 15.0);
  cfg.mean_move_interval_s = 0.0;
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  std::size_t arrivals = 0;
  for (const ChurnEvent& e : timeline.events) {
    EXPECT_NE(e.kind, ChurnEventKind::kMove);
    if (e.kind == ChurnEventKind::kArrival) ++arrivals;
  }
  EXPECT_EQ(timeline.universe.num_ues(), arrivals);
}

// The event-log names of the three churn event kinds.
TEST(Handover, KindNames) {
  EXPECT_EQ(to_string(ChurnEventKind::kArrival), "arrival");
  EXPECT_EQ(to_string(ChurnEventKind::kDeparture), "departure");
  EXPECT_EQ(to_string(ChurnEventKind::kMove), "move");
}

TEST(Handover, StaticPopulationNeverHandsOver) {
  ChurnConfig cfg = study_config(5.0, 15.0);
  cfg.mean_move_interval_s = 0.0;
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const ChurnStats s = run_churn(cfg, scheme).stats;
    EXPECT_EQ(s.moves, 0u);
    EXPECT_EQ(s.reassociations, 0u);
    EXPECT_EQ(s.cross_region_moves, 0u);
    EXPECT_DOUBLE_EQ(s.churn_rate(), 0.0);
  }
}

TEST(Handover, MovingPopulationChurns) {
  const ChurnConfig cfg = study_config(10.0, 20.0);
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  // Every move hands the UE a new position.
  for (const ChurnEvent& e : timeline.events) {
    if (e.kind != ChurnEventKind::kMove) continue;
    EXPECT_GT(distance_m(timeline.universe.ue(UeId{e.prev_slot}).position,
                         timeline.universe.ue(UeId{e.slot}).position),
              0.0);
  }
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const ChurnStats s = run_churn(timeline, cfg, scheme).stats;
    EXPECT_GT(s.moves, 0u);
    EXPECT_GT(s.reassociations, 0u);
    EXPECT_GT(s.churn_rate(), 0.0);
  }
}

TEST(Handover, FasterMovementMeansMoreChurn) {
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const auto handovers = [&](double vmin, double vmax) {
      return run_churn(study_config(vmin, vmax), scheme).stats.reassociations;
    };
    EXPECT_LT(handovers(0.5, 1.0), handovers(20.0, 30.0));
  }
}

// The auditor re-validates feasibility and the ledger after every event.
TEST(Handover, EveryStepAllocationIsFeasible) {
  const ChurnConfig cfg = study_config(5.0, 15.0);
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    check::InvariantAuditor auditor;
    audit::ScopedAuditObserver install(&auditor);
    ChurnResult r;
    EXPECT_NO_THROW(r = run_churn(timeline, cfg, scheme));
    EXPECT_TRUE(auditor.findings().ok);
    EXPECT_TRUE(check_feasibility(timeline.universe, r.final_allocation).ok);
    EXPECT_GT(r.stats.final_profit, 0.0);
  }
}

TEST(Handover, Deterministic) {
  const ChurnConfig cfg = study_config(5.0, 15.0);
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const ChurnResult a = run_churn(cfg, scheme);
    const ChurnResult b = run_churn(cfg, scheme);
    EXPECT_EQ(a.event_log, b.event_log);
    EXPECT_EQ(a.stats.reassociations, b.stats.reassociations);
  }
}

}  // namespace
}  // namespace dmra
