// Serving-driver contracts (docs/SERVING.md): deterministic timelines and
// event logs, auditor-clean replay (including departures and faults), and
// the degenerate 0-arrival / 0-dwell cases next to sim/degenerate_test.
// Each replay contract runs twice: as Churn.* on the default DMRA rule,
// and as ChurnSchemes.* with DMRA, DCSP and NonCo passed as the
// Allocator whose place() rule serves the timeline.
#include "sim/churn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/dcsp.hpp"
#include "baselines/greedy.hpp"
#include "baselines/nonco.hpp"
#include "check/invariant_auditor.hpp"
#include "core/dmra_allocator.hpp"
#include "mec/allocation.hpp"
#include "mec/audit.hpp"
#include "obs/recorder.hpp"
#include "sim/feasibility.hpp"
#include "util/require.hpp"

namespace dmra {
namespace {

ChurnConfig small_config() {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 8.0;
  cfg.mean_dwell_s = 25.0;
  cfg.mean_move_interval_s = 10.0;
  cfg.horizon_events = 400;
  cfg.resolve_every = 100;
  cfg.readmit_every = 32;
  cfg.seed = 17;
  return cfg;
}

TEST(Churn, TimelineIsDeterministic) {
  const ChurnConfig cfg = small_config();
  const ChurnTimeline a = build_churn_timeline(cfg);
  const ChurnTimeline b = build_churn_timeline(cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.events.size(), cfg.horizon_events);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].ue, b.events[i].ue);
    EXPECT_EQ(a.events[i].slot, b.events[i].slot);
    EXPECT_EQ(a.events[i].prev_slot, b.events[i].prev_slot);
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s);
  }
  EXPECT_EQ(a.universe.num_ues(), b.universe.num_ues());
  EXPECT_EQ(a.num_logical_ues, b.num_logical_ues);
  // One slot per arrival plus one per move; event times never decrease.
  double last = 0.0;
  std::size_t arrivals = 0, moves = 0;
  for (const ChurnEvent& e : a.events) {
    EXPECT_GE(e.time_s, last);
    last = e.time_s;
    if (e.kind == ChurnEventKind::kArrival) ++arrivals;
    if (e.kind == ChurnEventKind::kMove) ++moves;
  }
  EXPECT_EQ(a.universe.num_ues(), arrivals + moves);
}

void expect_RunIsDeterministicAndTracingInvariant(const Allocator* scheme) {
  const ChurnConfig cfg = small_config();
  const ChurnResult untraced = run_churn(cfg, scheme);

  obs::TraceRecorder rec;
  ChurnResult traced;
  {
    obs::ScopedTraceRecorder install(&rec);
    traced = run_churn(cfg, scheme);
  }
  // Tracing must not perturb any deterministic surface.
  EXPECT_EQ(untraced.event_log, traced.event_log);
  EXPECT_EQ(untraced.final_allocation, traced.final_allocation);
  EXPECT_EQ(untraced.stats.events, traced.stats.events);
  EXPECT_EQ(untraced.stats.reassociations, traced.stats.reassociations);
  EXPECT_EQ(untraced.stats.final_profit, traced.stats.final_profit);

  // One RoundRow per applied event, all from this driver.
  ASSERT_EQ(rec.rows().size(), traced.stats.events);
  for (const obs::RoundRow& row : rec.rows()) EXPECT_EQ(row.source, "sim/churn");
  // Every applied event narrates itself on the timeline track.
  std::size_t timeline_events = 0;
  for (const obs::TraceEvent& e : rec.events())
    if (e.kind == obs::EventKind::kTimeline) ++timeline_events;
  EXPECT_EQ(timeline_events, traced.stats.events);
}

void expect_StatsAreInternallyConsistent(const Allocator* scheme) {
  const ChurnResult r = run_churn(small_config(), scheme);
  const ChurnStats& s = r.stats;
  EXPECT_EQ(s.events, s.arrivals + s.departures + s.moves);
  EXPECT_EQ(s.final_active, s.arrivals - s.departures);
  EXPECT_EQ(s.final_active, s.final_served + s.final_cloud);
  EXPECT_GT(s.moves, 0u);
  EXPECT_LE(s.reassociations, s.moves + s.orphaned_ues);
  EXPECT_LE(s.cross_region_moves, s.moves);
  EXPECT_GE(s.peak_active, s.final_active);
  EXPECT_EQ(s.resolves, small_config().horizon_events / 100);
}

void expect_FinalAllocationIsFeasibleAndProfitMatches(const Allocator* scheme) {
  const ChurnConfig cfg = small_config();
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  const ChurnResult r = run_churn(timeline, cfg, scheme);
  const FeasibilityReport report = check_feasibility(timeline.universe, r.final_allocation);
  EXPECT_TRUE(report.ok) << (report.violations.empty() ? "" : report.violations[0]);
  const double recomputed = total_profit(timeline.universe, r.final_allocation);
  EXPECT_NEAR(r.stats.final_profit, recomputed,
              1e-9 * std::max(1.0, std::abs(recomputed)));
}

// Departure conservation: every release is recounted by the auditor's
// ledger cross-check after every event (round 0 keeps it stateless). A
// short dwell maximizes departures through the audited window.
void expect_AuditedHighChurnRunIsClean(const Allocator* scheme) {
  ChurnConfig cfg = small_config();
  cfg.mean_dwell_s = 5.0;  // heavy departure traffic
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);
  ChurnResult r;
  EXPECT_NO_THROW(r = run_churn(cfg, scheme));
  EXPECT_GT(r.stats.departures, 50u);
}

void expect_AuditedFaultRunIsClean(const Allocator* scheme) {
  ChurnConfig cfg = small_config();
  cfg.prefill = 200;  // crash lands on a loaded deployment
  FaultSpec faults;
  faults.crashes = 1;
  faults.crash_round = 120;   // event index on the serving timeline
  faults.down_rounds = 150;   // recovers at event 270
  faults.seed = 3;
  cfg.faults = faults;
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);
  ChurnResult r;
  EXPECT_NO_THROW(r = run_churn(cfg, scheme));
  EXPECT_EQ(r.stats.crashes, 1u);
  EXPECT_EQ(r.stats.recoveries, 1u);
  EXPECT_GT(r.stats.orphaned_ues, 0u);
  EXPECT_GE(r.stats.recovery_events_max, 1u);
  // Crash evictions are reassociations (served → cloud).
  EXPECT_GE(r.stats.reassociations, r.stats.orphaned_ues);
}

void expect_FaultSameSeedIsByteIdentical(const Allocator* scheme) {
  ChurnConfig cfg = small_config();
  FaultSpec faults;
  faults.crashes = 2;
  faults.crash_round = 80;
  faults.down_rounds = 100;
  faults.degradations = 1;
  faults.degrade_round = 50;
  faults.seed = 11;
  cfg.faults = faults;
  const ChurnResult a = run_churn(cfg, scheme);
  const ChurnResult b = run_churn(cfg, scheme);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.final_allocation, b.final_allocation);
  EXPECT_EQ(a.stats.readmitted, b.stats.readmitted);
  EXPECT_EQ(a.stats.recovery_events_max, b.stats.recovery_events_max);
}

void expect_ZeroArrivalDegenerate(const Allocator* scheme) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 0.0;
  cfg.prefill = 0;
  cfg.horizon_events = 100;
  const ChurnResult r = run_churn(cfg, scheme);
  EXPECT_EQ(r.stats.events, 0u);
  EXPECT_EQ(r.stats.universe_slots, 0u);
  EXPECT_EQ(r.final_allocation.num_ues(), 0u);
  EXPECT_EQ(r.latency.count(), 0u);
  EXPECT_EQ(r.event_log, "final events=0 active=0 served=0 cloud=0 profit=0\n");
}

void expect_ZeroDwellDegenerate(const Allocator* scheme) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 5.0;
  cfg.mean_dwell_s = 0.0;  // depart the instant they arrive
  cfg.horizon_events = 100;
  cfg.seed = 5;
  check::InvariantAuditor auditor;
  audit::ScopedAuditObserver install(&auditor);
  ChurnResult r;
  EXPECT_NO_THROW(r = run_churn(cfg, scheme));
  // Arrivals and departures interleave one-for-one.
  EXPECT_EQ(r.stats.final_active, r.stats.arrivals - r.stats.departures);
  EXPECT_LE(r.stats.final_active, 1u);
  EXPECT_EQ(r.stats.moves, 0u);
  EXPECT_NEAR(r.stats.final_profit,
              total_profit(build_churn_timeline(cfg).universe, r.final_allocation), 1e-9);
}

TEST(Churn, PrefillArrivesAtTimeZeroAndCountsTowardHorizon) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 0.0;  // prefill only
  cfg.mean_dwell_s = 50.0;
  cfg.prefill = 60;
  cfg.horizon_events = 60;
  const ChurnResult r = run_churn(cfg);
  EXPECT_EQ(r.stats.events, 60u);
  EXPECT_EQ(r.stats.arrivals, 60u);
  EXPECT_EQ(r.stats.final_active, 60u);
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  for (const ChurnEvent& e : timeline.events) EXPECT_EQ(e.time_s, 0.0);
}

TEST(Churn, SteadyStateTargetIsRateTimesDwell) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 20.0;
  cfg.mean_dwell_s = 100.0;
  EXPECT_EQ(cfg.steady_state_target(), 2000u);
  cfg.arrival_rate_hz = 0.0;
  EXPECT_EQ(cfg.steady_state_target(), 0u);
}

// The replay contracts above, on the default rule and per scheme.
#define DMRA_CHURN_CONTRACT(name)                                     \
  TEST(Churn, name) { expect_##name(nullptr); }                       \
  TEST_P(ChurnSchemes, name) { expect_##name(GetParam().allocator); }

struct Scheme {
  const Allocator* allocator;
};
void PrintTo(const Scheme& s, std::ostream* os) { *os << s.allocator->name(); }

class ChurnSchemes : public ::testing::TestWithParam<Scheme> {};

DMRA_CHURN_CONTRACT(RunIsDeterministicAndTracingInvariant)
DMRA_CHURN_CONTRACT(StatsAreInternallyConsistent)
DMRA_CHURN_CONTRACT(FinalAllocationIsFeasibleAndProfitMatches)
DMRA_CHURN_CONTRACT(AuditedHighChurnRunIsClean)
DMRA_CHURN_CONTRACT(AuditedFaultRunIsClean)
DMRA_CHURN_CONTRACT(FaultSameSeedIsByteIdentical)
DMRA_CHURN_CONTRACT(ZeroArrivalDegenerate)
DMRA_CHURN_CONTRACT(ZeroDwellDegenerate)

const DmraAllocator kDmra;
const DcspAllocator kDcsp;
const NonCoAllocator kNonCo;

INSTANTIATE_TEST_SUITE_P(Schemes, ChurnSchemes,
                         ::testing::Values(Scheme{&kDmra}, Scheme{&kDcsp}, Scheme{&kNonCo}));

// The explicit DMRA rule is the default rule: same bytes on every surface.
TEST(Churn, ExplicitDmraAllocatorMatchesTheDefaultRule) {
  ChurnConfig cfg = small_config();
  cfg.incremental.dmra.rho = 250.0;
  const DmraAllocator explicit_dmra(cfg.incremental.dmra);
  const ChurnResult a = run_churn(cfg);
  const ChurnResult b = run_churn(cfg, &explicit_dmra);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.final_allocation, b.final_allocation);
}

// Schemes differ in where they send UEs, not in what the engine does
// around them: the timeline and its bookkeeping are shared.
TEST(Churn, SchemesShareTheTimelineButNotTheDecisions) {
  const ChurnConfig cfg = small_config();
  const ChurnResult dmra = run_churn(cfg, &kDmra);
  const ChurnResult dcsp = run_churn(cfg, &kDcsp);
  EXPECT_EQ(dmra.stats.arrivals, dcsp.stats.arrivals);
  EXPECT_EQ(dmra.stats.departures, dcsp.stats.departures);
  EXPECT_EQ(dmra.stats.moves, dcsp.stats.moves);
  EXPECT_NE(dmra.final_allocation, dcsp.final_allocation);
  // The resolve baseline is DMRA for every scheme; DMRA's own live
  // allocation sits closer to it than DCSP's load-balancing one.
  EXPECT_LT(dmra.stats.resolve_gap_last, dcsp.stats.resolve_gap_last);
}

// ---- Online operation: arrivals, dwell and departures ----------------------
// Online operation on the churn engine, checked for every scheme (null =
// the default DMRA rule).

const Allocator* const kSchemes[] = {nullptr, &kDmra, &kDcsp, &kNonCo};

std::string scheme_name(const Allocator* scheme) {
  return scheme == nullptr ? "default" : scheme->name();
}

/// A 300-UE steady state (10 arrivals/s × 30 s dwell), then 600 events.
ChurnConfig online_config() {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 10.0;
  cfg.mean_dwell_s = 30.0;
  cfg.prefill = cfg.steady_state_target();
  cfg.horizon_events = cfg.prefill + 600;
  cfg.seed = 5;
  return cfg;
}

/// Arrivals, departures and moves of `timeline` applied straight to an
/// IncrementalAllocator (no sweeps), exposing the ledger run_churn keeps.
IncrementalAllocator replay(const ChurnTimeline& timeline, const Allocator* scheme) {
  IncrementalAllocator inc(timeline.universe, {}, scheme);
  for (const ChurnEvent& e : timeline.events) {
    if (e.kind == ChurnEventKind::kMove) inc.remove(UeId{e.prev_slot});
    if (e.kind == ChurnEventKind::kDeparture) {
      inc.remove(UeId{e.slot});
    } else {
      inc.admit(UeId{e.slot});
    }
  }
  return inc;
}

TEST(Online, RunsAllEpochsAndAccounts) {
  const ChurnConfig cfg = online_config();
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const ChurnStats s = run_churn(cfg, scheme).stats;
    EXPECT_EQ(s.events, cfg.horizon_events);
    EXPECT_EQ(s.events, s.arrivals + s.departures + s.moves);
    // Every admission is decided: onto a BS or to the cloud.
    EXPECT_EQ(s.admitted_to_bs + s.admitted_to_cloud, s.arrivals + s.moves);
    EXPECT_EQ(s.final_active, s.final_served + s.final_cloud);
  }
}

TEST(Online, Deterministic) {
  const ChurnConfig cfg = online_config();
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const ChurnResult a = run_churn(cfg, scheme);
    const ChurnResult b = run_churn(cfg, scheme);
    EXPECT_EQ(a.event_log, b.event_log);
    EXPECT_EQ(a.stats.final_profit, b.stats.final_profit);
  }
}

TEST(Online, ArrivalBatchesDifferAcrossEpochs) {
  // Arrivals draw their attributes independently; so do seeds.
  const ChurnConfig cfg = online_config();
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  ASSERT_GE(timeline.universe.num_ues(), 2u);
  EXPECT_FALSE(timeline.universe.ue(UeId{0}).position ==
               timeline.universe.ue(UeId{1}).position);
  ChurnConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(run_churn(cfg).stats.final_profit, run_churn(other).stats.final_profit);
}

TEST(Online, ResourcesConserved) {
  // The live ledger equals nominal capacity minus what the allocation
  // holds, for every BS and service, whichever scheme placed the UEs.
  const ChurnTimeline timeline = build_churn_timeline(online_config());
  const Scenario& u = timeline.universe;
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const IncrementalAllocator inc = replay(timeline, scheme);
    EXPECT_GT(inc.allocation().num_served(), 0u);
    ResourceState recount(u);
    for (const BaseStation& b : u.bss()) {
      recount.recount_remaining(b.id, inc.allocation());
      EXPECT_EQ(inc.state().remaining_rrbs(b.id), recount.remaining_rrbs(b.id));
      for (std::size_t j = 0; j < u.num_services(); ++j) {
        const ServiceId sj{static_cast<std::uint32_t>(j)};
        EXPECT_EQ(inc.state().remaining_crus(b.id, sj), recount.remaining_crus(b.id, sj));
      }
    }
  }
}

TEST(Online, DeparturesFreeResources) {
  // A prefilled population with no further arrivals drains completely.
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 0.0;
  cfg.mean_dwell_s = 5.0;
  cfg.prefill = 300;
  cfg.horizon_events = 600;
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  ASSERT_EQ(timeline.events.size(), 600u);
  const ResourceState fresh(timeline.universe);
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const IncrementalAllocator inc = replay(timeline, scheme);
    EXPECT_EQ(inc.num_active(), 0u);
    EXPECT_NEAR(inc.live_profit(), 0.0, 1e-9);
    for (const BaseStation& b : timeline.universe.bss())
      EXPECT_EQ(inc.state().remaining_rrbs(b.id), fresh.remaining_rrbs(b.id));
    EXPECT_EQ(run_churn(timeline, cfg, scheme).stats.final_served, 0u);
  }
}

TEST(Online, SteadyStateUtilizationStabilizes) {
  // From empty, the population grows toward λ × dwell and stays there.
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 10.0;
  cfg.mean_dwell_s = 30.0;
  cfg.horizon_events = 3000;  // ~150 s, five mean dwells
  cfg.seed = 9;
  const double target = static_cast<double>(cfg.steady_state_target());
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const ChurnStats s = run_churn(cfg, scheme).stats;
    EXPECT_GT(static_cast<double>(s.final_active), 0.75 * target);
    EXPECT_LT(static_cast<double>(s.final_active), 1.25 * target);
    EXPECT_LT(static_cast<double>(s.peak_active), 1.4 * target);
    EXPECT_GT(s.final_served, 0u);
  }
}

TEST(Online, WorksWithAnyAllocator) {
  // Any scheme with a place() rule serves; one without says which it is.
  const ChurnConfig cfg = online_config();
  const NonCoAllocator nonco_iter(NonCoAllocator::Mode::kIterative);
  const Allocator* const schemes[] = {&kDmra, &kDcsp, &kNonCo, &nonco_iter};
  for (const Allocator* scheme : schemes) {
    SCOPED_TRACE(scheme->name());
    const ChurnTimeline timeline = build_churn_timeline(cfg);
    const ChurnResult r = run_churn(timeline, cfg, scheme);
    EXPECT_GT(r.stats.final_served, 0u);
    EXPECT_TRUE(check_feasibility(timeline.universe, r.final_allocation).ok);
  }
  const GreedyProfitAllocator greedy;
  try {
    (void)run_churn(cfg, &greedy);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(greedy.name()), std::string::npos);
  }
}

TEST(Online, TableHasOneRowPerEpoch) {
  // The event log has one line per applied event, then the final line.
  ChurnConfig cfg = online_config();
  cfg.readmit_every = 0;
  for (const Allocator* scheme : kSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const ChurnResult r = run_churn(cfg, scheme);
    std::size_t lines = 0;
    for (const char c : r.event_log) lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, r.stats.events + 1);
    EXPECT_NE(r.event_log.find("\nfinal events=" + std::to_string(r.stats.events)),
              std::string::npos);
  }
}

TEST(Online, LifetimeContracts) {
  ChurnConfig cfg = online_config();
  cfg.arrival_rate_hz = -1.0;
  EXPECT_THROW(build_churn_timeline(cfg), ContractViolation);
  // Zero dwell: every UE departs at its arrival instant, never before.
  cfg = online_config();
  cfg.prefill = 0;
  cfg.mean_dwell_s = 0.0;
  const ChurnTimeline timeline = build_churn_timeline(cfg);
  std::vector<double> arrived(timeline.num_logical_ues, -1.0);
  for (const ChurnEvent& e : timeline.events) {
    if (e.kind == ChurnEventKind::kArrival) arrived[e.ue] = e.time_s;
    if (e.kind == ChurnEventKind::kDeparture) {
      EXPECT_EQ(e.time_s, arrived[e.ue]);
    }
  }
}

}  // namespace
}  // namespace dmra
