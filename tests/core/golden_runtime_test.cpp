// Golden byte-identity fingerprints for the decentralized runtime.
//
// ISSUE 7 / ROADMAP item 2 reworks the MessageBus into pooled storage
// with batch-drained flat inboxes and restructures the matching loops
// into SoA passes. The acceptance bar is *byte-identical per-seed
// behavior*: same bus rounds, same message counts, same profit bits,
// and the same trace/CSV export bytes as the pre-rework runtime. These
// fingerprints were generated from the seed-era (pre-pooling) code and
// must never drift — a mismatch means the rework changed observable
// behavior, not just performance.
//
// Two probes per seed:
//  * decentralized — fault-free protocol run with a trace recorder
//    installed (hashes cover the Chrome-trace JSON and round CSV bytes),
//  * faulted       — loss+crash+degradation plan (dup/delay are
//    bus-level mechanisms, pinned by BusFaultStreamPinned), recovery
//    counters included, so the fault-path draw order is pinned too.
//
// A second table, kChurnGolden, pins the serving driver (sim/churn): one
// run_churn replay per row with the readmit sweep and the periodic
// resolve on, plus one faulted arm (crash, degradation, recovery). It
// holds every deterministic output those maintenance passes feed: the
// event-log hash, final profit bits, readmissions, resolve count and gaps,
// and the final cloud population.
//
// A third pair of tables, kScaleGolden and kServingGolden, pins the protocol
// cost counters at the scales the paper figures use: bus rounds, messages
// and matching rounds of one seed-1 decentralized run at 500/1000/2000 UEs,
// and every deterministic counter of the 10k-event serving replay over a
// 2,000-UE steady state, with and without a BS crash. Each probe runs under
// a fresh flight recorder, so the retained-event, post-mortem and
// metric-window counts are per run. Wall time, RSS and throughput are not
// pinned here; perfbench/ measures them. These rows are short: update them
// from the EXPECT_EQ messages rather than a regen printout.
//
// kMessageKindGolden splits those runs' messages_sent by message kind
// (requests, relayed proposals, decisions, broadcast copies) and checks
// that the kinds add up to the pinned total.
//
// A fourth table, kShardedGolden, pins the region-sharded runtime: one
// run_sharded_dmra per (seed, shard count) at 500 UEs, with the allocation's
// profit bits, the summed matching and bus counters, each region's protocol
// rounds, and the boundary/reconcile split.
//
// Regenerating (only legitimate after an intentional semantic change):
//   DMRA_GOLDEN_REGEN=1 ./build/tests/core_test
//     --gtest_filter='GoldenRuntime.*' 2>/dev/null
// then paste the printed rows over kGolden below and say why in the PR.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include <vector>

#include "core/decentralized.hpp"
#include "net/bus.hpp"
#include "core/solver.hpp"
#include "mec/allocation.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "sim/churn.hpp"
#include "sim/faults.hpp"
#include "workload/generator.hpp"

namespace dmra {
namespace {

constexpr std::size_t kUes = 300;
constexpr int kSeeds = 10;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t profit_bits(const Scenario& s, const Allocation& a) {
  return std::bit_cast<std::uint64_t>(total_profit(s, a));
}

struct GoldenRow {
  std::uint64_t seed;
  // Fault-free decentralized run (with tracing installed).
  std::uint64_t dec_bus_rounds;
  std::uint64_t dec_messages_sent;
  std::uint64_t dec_matching_rounds;
  std::uint64_t dec_profit_bits;
  std::uint64_t dec_trace_hash;  ///< FNV-1a of to_chrome_trace_json()
  std::uint64_t dec_csv_hash;    ///< FNV-1a of to_round_csv()
  // Faulted decentralized run (loss+crash+degrade).
  std::uint64_t flt_bus_rounds;
  std::uint64_t flt_messages_sent;
  std::uint64_t flt_dropped;
  std::uint64_t flt_duplicated;
  std::uint64_t flt_delayed;
  std::uint64_t flt_orphaned;
  std::uint64_t flt_cloud_fallbacks;
  std::uint64_t flt_profit_bits;
};

GoldenRow run_probes(std::uint64_t seed) {
  GoldenRow row{};
  row.seed = seed;

  ScenarioConfig cfg;
  cfg.num_ues = kUes;
  const Scenario s = generate_scenario(cfg, seed);

  {
    obs::TraceRecorder rec;
    obs::ScopedTraceRecorder install(&rec);
    const DecentralizedResult dec = run_decentralized_dmra(s);
    row.dec_bus_rounds = dec.bus.rounds;
    row.dec_messages_sent = dec.bus.messages_sent;
    row.dec_matching_rounds = dec.dmra.rounds;
    row.dec_profit_bits = profit_bits(s, dec.dmra.allocation);
    row.dec_trace_hash = fnv1a(rec.to_chrome_trace_json());
    row.dec_csv_hash = fnv1a(rec.to_round_csv());
  }

  {
    // Protocol-level faults: loss + crash/recovery + degradation (the
    // full decentralized fault surface; duplication/delay are bus-level
    // mechanisms pinned separately by BusFaultStreamPinned below).
    FaultSpec spec;
    spec.loss = 0.08;
    spec.crashes = 2;
    spec.crash_round = 3;
    spec.down_rounds = 6;
    spec.degradations = 1;
    spec.seed = seed;
    const FaultPlan plan = make_fault_plan(spec, s.num_bss());
    NetworkConditions net;
    net.seed = seed;
    net.faults = &plan;
    const DecentralizedResult flt = run_decentralized_dmra(s, {}, net);
    row.flt_bus_rounds = flt.bus.rounds;
    row.flt_messages_sent = flt.bus.messages_sent;
    row.flt_dropped = flt.bus.messages_dropped;
    row.flt_duplicated = flt.bus.messages_duplicated;
    row.flt_delayed = flt.bus.messages_delayed;
    row.flt_orphaned = flt.recovery.orphaned_ues;
    row.flt_cloud_fallbacks = flt.recovery.cloud_fallbacks;
    row.flt_profit_bits = profit_bits(s, flt.dmra.allocation);
  }
  return row;
}

void print_row(const GoldenRow& r) {
  std::printf(
      "    {%lluull, %lluull, %lluull, %lluull, 0x%llxull, 0x%llxull, "
      "0x%llxull,\n"
      "     %lluull, %lluull, %lluull, %lluull, %lluull, %lluull, %lluull, "
      "0x%llxull},\n",
      static_cast<unsigned long long>(r.seed),
      static_cast<unsigned long long>(r.dec_bus_rounds),
      static_cast<unsigned long long>(r.dec_messages_sent),
      static_cast<unsigned long long>(r.dec_matching_rounds),
      static_cast<unsigned long long>(r.dec_profit_bits),
      static_cast<unsigned long long>(r.dec_trace_hash),
      static_cast<unsigned long long>(r.dec_csv_hash),
      static_cast<unsigned long long>(r.flt_bus_rounds),
      static_cast<unsigned long long>(r.flt_messages_sent),
      static_cast<unsigned long long>(r.flt_dropped),
      static_cast<unsigned long long>(r.flt_duplicated),
      static_cast<unsigned long long>(r.flt_delayed),
      static_cast<unsigned long long>(r.flt_orphaned),
      static_cast<unsigned long long>(r.flt_cloud_fallbacks),
      static_cast<unsigned long long>(r.flt_profit_bits));
}

// Fingerprints generated from the pre-pooling runtime (see header).
constexpr GoldenRow kGolden[kSeeds] = {
    {1ull, 26ull, 13527ull, 6ull, 0x40abb753a2515433ull, 0xa564576655d728daull, 0x62d2eee12d4d5d6full,
     78ull, 46705ull, 3757ull, 0ull, 0ull, 15ull, 0ull, 0x40ab7bb005f8b2baull},
    {2ull, 26ull, 13328ull, 6ull, 0x40ac49fe580e3a9cull, 0x1195ac9cdd9ac3a7ull, 0xc1b32336d4d4adcaull,
     86ull, 50066ull, 3989ull, 0ull, 0ull, 29ull, 0ull, 0x40ac1f7003f58fc8ull},
    {3ull, 26ull, 13879ull, 6ull, 0x40abe812b0115557ull, 0xb1eb888c0ff2314ull, 0x228a1cdad681b2cfull,
     86ull, 51581ull, 4207ull, 0ull, 0ull, 19ull, 0ull, 0x40abbef655eab737ull},
    {4ull, 30ull, 14281ull, 7ull, 0x40ac5d895fe42c9aull, 0xa512b4b3f2ba78dfull, 0x5c2e1a8a1146c5cdull,
     86ull, 51178ull, 4087ull, 0ull, 0ull, 29ull, 0ull, 0x40abeef46d8b96b0ull},
    {5ull, 30ull, 14380ull, 7ull, 0x40acc0d13b25345aull, 0x9f10a9af23d9587dull, 0x36cd5367e9b516bcull,
     78ull, 47275ull, 3803ull, 0ull, 0ull, 21ull, 0ull, 0x40ac78111cd65488ull},
    {6ull, 34ull, 14440ull, 8ull, 0x40acb00b910906d7ull, 0x9334a9f93c6154e6ull, 0xc351b03741449b65ull,
     74ull, 44651ull, 3499ull, 0ull, 0ull, 19ull, 0ull, 0x40ac709e3c298f33ull},
    {7ull, 30ull, 14724ull, 7ull, 0x40ac750fb384d2b8ull, 0x5d3ea6b79d8e6e33ull, 0x672751acd7202dfcull,
     78ull, 46494ull, 3828ull, 0ull, 0ull, 16ull, 0ull, 0x40ac4c2034b707faull},
    {8ull, 22ull, 13471ull, 5ull, 0x40ac04c4f46a04abull, 0x8319a8f099da4c88ull, 0x7d5d70cb300615d2ull,
     86ull, 51241ull, 4111ull, 0ull, 0ull, 17ull, 0ull, 0x40abb2c314cd5020ull},
    {9ull, 38ull, 14050ull, 9ull, 0x40ac3710295753fcull, 0x2261cb64b42a48c1ull, 0x412533899b0b74e3ull,
     70ull, 41122ull, 3258ull, 0ull, 0ull, 25ull, 0ull, 0x40abfe3c57d5e0a1ull},
    {10ull, 34ull, 15092ull, 8ull, 0x40ac02b7df96341eull, 0x199ed149873cc04bull, 0xd480c6a9dc6c6c29ull,
     82ull, 50202ull, 3903ull, 0ull, 0ull, 19ull, 0ull, 0x40abd00def528e65ull},
};

struct ChurnGoldenRow {
  std::uint64_t seed;
  bool faulted;
  std::uint64_t log_hash;  ///< FNV-1a of ChurnResult::event_log
  std::uint64_t final_profit_bits;
  std::uint64_t readmitted;
  std::uint64_t resolves;
  std::uint64_t gap_last_bits;
  std::uint64_t gap_max_bits;
  std::uint64_t final_cloud;
  std::uint64_t fault_actions;  ///< crashes + degradations + recoveries
};

/// A loaded steady state (≈1,000 UEs on the default deployment) so the
/// readmit sweep has cloud dwellers to place and the resolve has a gap.
ChurnGoldenRow run_churn_probe(std::uint64_t seed, bool faulted) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 10.0;
  cfg.mean_dwell_s = 100.0;
  cfg.mean_move_interval_s = 60.0;
  cfg.prefill = cfg.steady_state_target();
  cfg.horizon_events = 2500;
  cfg.readmit_every = 64;
  cfg.resolve_every = 400;
  cfg.seed = seed;
  if (faulted) {
    FaultSpec spec;
    spec.crashes = 3;
    spec.crash_round = 1200;  // event indices on the serving timeline
    spec.down_rounds = 600;
    spec.degradations = 2;
    spec.degrade_round = 1100;
    spec.seed = seed;
    cfg.faults = spec;
    // One orphan re-placement per event: the backlog drains slower than
    // the readmit sweep comes round, so the sweep re-places orphans too.
    cfg.recovery_batch = 1;
  }
  const ChurnResult r = run_churn(cfg);
  ChurnGoldenRow row{};
  row.seed = seed;
  row.faulted = faulted;
  row.log_hash = fnv1a(r.event_log);
  row.final_profit_bits = std::bit_cast<std::uint64_t>(r.stats.final_profit);
  row.readmitted = r.stats.readmitted;
  row.resolves = r.stats.resolves;
  row.gap_last_bits = std::bit_cast<std::uint64_t>(r.stats.resolve_gap_last);
  row.gap_max_bits = std::bit_cast<std::uint64_t>(r.stats.resolve_gap_max);
  row.final_cloud = r.stats.final_cloud;
  row.fault_actions = r.stats.crashes + r.stats.degradations + r.stats.recoveries;
  return row;
}

void print_churn_row(const ChurnGoldenRow& r) {
  std::printf("    {%lluull, %s, 0x%llxull, 0x%llxull, %lluull, %lluull,\n"
              "     0x%llxull, 0x%llxull, %lluull, %lluull},\n",
              static_cast<unsigned long long>(r.seed), r.faulted ? "true" : "false",
              static_cast<unsigned long long>(r.log_hash),
              static_cast<unsigned long long>(r.final_profit_bits),
              static_cast<unsigned long long>(r.readmitted),
              static_cast<unsigned long long>(r.resolves),
              static_cast<unsigned long long>(r.gap_last_bits),
              static_cast<unsigned long long>(r.gap_max_bits),
              static_cast<unsigned long long>(r.final_cloud),
              static_cast<unsigned long long>(r.fault_actions));
}

// Fingerprints generated from the full-slot-scan readmit sweep and the
// per-round seeker scan in solve_dmra_partial (see header).
constexpr ChurnGoldenRow kChurnGolden[] = {
    {1ull, false, 0x77f98b24396ccd99ull, 0x40c348f29de4799eull, 174ull, 6ull,
     0x3f9f3ff446db85d8ull, 0x3f9f3ff446db85d8ull, 72ull, 0ull},
    {2ull, false, 0xd94f253c06516bb3ull, 0x40c343507c0cb30eull, 187ull, 6ull,
     0x3f938ba5d9bb161eull, 0x3f938ba5d9bb161eull, 78ull, 0ull},
    {3ull, false, 0x45b0447c9bdbe44cull, 0x40c3779c449a6bdfull, 192ull, 6ull,
     0x3fa352815e9384a8ull, 0x3fa352815e9384a8ull, 59ull, 0ull},
    {4ull, true, 0xc08d74a57b3dea85ull, 0x40c25ab3b7c0d7deull, 247ull, 6ull,
     0x3fad5a8f9fcbd73eull, 0x3fad5a8f9fcbd73eull, 121ull, 8ull},
};

struct ScaleGoldenRow {
  std::size_t ues;
  std::uint64_t bus_rounds;
  std::uint64_t messages_sent;
  std::uint64_t matching_rounds;
  std::uint64_t flight_events_retained;
};

ScaleGoldenRow run_scale_probe(std::size_t ues) {
  ScenarioConfig cfg;
  cfg.num_ues = ues;
  const Scenario s = generate_scenario(cfg, 1);
  obs::FlightRecorder flight;
  obs::ScopedFlightRecorder scope(&flight);
  const DecentralizedResult r = run_decentralized_dmra(s);
  return {ues, r.bus.rounds, r.bus.messages_sent,
          static_cast<std::uint64_t>(r.dmra.rounds), flight.events_retained()};
}

constexpr ScaleGoldenRow kScaleGolden[] = {
    {500, 38ull, 33162ull, 9ull, 2ull},
    {1000, 62ull, 86473ull, 15ull, 2ull},
    {2000, 38ull, 166662ull, 9ull, 2ull},
};

// The kScaleGolden runs' messages_sent split by kind: offload requests,
// relayed proposals, decisions (BS → SP and SP → UE, one each) and
// resource-broadcast copies. A broadcast is one multicast per BS on the
// bus; its copies, one per covered UE, are counted one by one.
struct MessageKindGoldenRow {
  std::size_t ues;
  std::uint64_t requests;
  std::uint64_t proposes;
  std::uint64_t decisions;
  std::uint64_t broadcasts;
};

constexpr MessageKindGoldenRow kMessageKindGolden[] = {
    {500, 1407ull, 1407ull, 2814ull, 27534ull},
    {1000, 4708ull, 4708ull, 9416ull, 67641ull},
    {2000, 11659ull, 11659ull, 23318ull, 120026ull},
};

struct ServingGoldenRow {
  bool faulted;
  std::uint64_t events;
  std::uint64_t arrivals;
  std::uint64_t departures;
  std::uint64_t moves;
  std::uint64_t reassociations;
  std::uint64_t cross_region_moves;
  std::uint64_t readmitted;
  std::uint64_t orphaned;
  std::uint64_t recovery_events_max;
  std::uint64_t resolves;
  std::uint64_t final_active;
  std::uint64_t final_served;
  std::uint64_t final_profit_bits;
  std::uint64_t gap_last_bits;
  std::uint64_t flight_events_retained;
  std::uint64_t postmortem_dumps;
  std::uint64_t metric_windows;
};

/// The 10k-event replay over a ~2,000-UE steady state, optionally with one
/// BS crash halfway through the timeline.
ServingGoldenRow run_serving_probe(bool faulted) {
  ChurnConfig cfg;
  cfg.arrival_rate_hz = 20.0;
  cfg.mean_dwell_s = 100.0;
  cfg.mean_move_interval_s = 60.0;
  cfg.horizon_events = 10'000;
  cfg.resolve_every = 2'000;
  cfg.prefill = cfg.steady_state_target();
  cfg.seed = 1;
  if (faulted) {
    FaultSpec crash;
    crash.crashes = 1;
    crash.crash_round = cfg.horizon_events / 2;
    crash.down_rounds = cfg.horizon_events / 10;
    crash.seed = 9;
    cfg.faults = crash;
  }
  obs::FlightRecorder::Config flight_cfg;
  flight_cfg.window_len = 256;
  obs::FlightRecorder flight(flight_cfg);
  ChurnResult r;
  {
    obs::ScopedFlightRecorder scope(&flight);
    r = run_churn(cfg);
  }
  const ChurnStats& st = r.stats;
  return {faulted, st.events, st.arrivals, st.departures, st.moves,
          st.reassociations, st.cross_region_moves, st.readmitted,
          st.orphaned_ues, st.recovery_events_max, st.resolves,
          st.final_active, st.final_served,
          std::bit_cast<std::uint64_t>(st.final_profit),
          std::bit_cast<std::uint64_t>(st.resolve_gap_last),
          flight.events_retained(), flight.triggered() ? 1ull : 0ull,
          flight.metrics().collect_windows().size()};
}

constexpr ServingGoldenRow kServingGolden[] = {
    {false, 10000ull, 4178ull, 2166ull, 3656ull, 617ull, 160ull, 467ull, 0ull,
     0ull, 5ull, 2012ull, 1007ull, 0x40c308e893f75ea6ull, 0x3fc013ea338cd2d5ull,
     1024ull, 0ull, 40ull},
    {true, 10000ull, 4178ull, 2166ull, 3656ull, 661ull, 160ull, 485ull, 42ull,
     11ull, 5ull, 2012ull, 1000ull, 0x40c2e83b18b6367dull, 0x3fc0d40e2c615a8cull,
     1024ull, 1ull, 40ull},
};

struct ShardedGoldenRow {
  std::uint64_t seed;
  std::size_t shards;
  std::uint64_t profit_bits;
  std::uint64_t matching_rounds;
  std::uint64_t proposals;
  std::uint64_t rejections;
  std::uint64_t messages_sent;
  std::uint64_t bus_rounds;
  std::array<std::uint64_t, 8> rounds_per_shard;  ///< first `shards` entries used
  std::uint64_t boundary_ues;
  std::uint64_t boundary_ues_reconciled;
};

ShardedGoldenRow run_sharded_probe(std::uint64_t seed, std::size_t shards) {
  ScenarioConfig cfg;
  cfg.num_ues = 500;
  const Scenario s = generate_scenario(cfg, seed);
  const ShardedResult r = run_sharded_dmra(s, {}, {.num_shards = shards});
  ShardedGoldenRow row{};
  row.seed = seed;
  row.shards = shards;
  row.profit_bits = profit_bits(s, r.dmra.allocation);
  row.matching_rounds = r.dmra.rounds;
  row.proposals = r.dmra.proposals_sent;
  row.rejections = r.dmra.rejections;
  row.messages_sent = r.bus.messages_sent;
  row.bus_rounds = r.bus.rounds;
  for (std::size_t i = 0; i < r.shard.rounds_per_shard.size() && i < 8; ++i)
    row.rounds_per_shard[i] = r.shard.rounds_per_shard[i];
  row.boundary_ues = r.shard.boundary_ues;
  row.boundary_ues_reconciled = r.shard.boundary_ues_reconciled;
  return row;
}

void print_sharded_row(const ShardedGoldenRow& r) {
  std::printf("    {%lluull, %zu, 0x%llxull, %lluull, %lluull, %lluull, %lluull, %lluull,\n"
              "     {",
              static_cast<unsigned long long>(r.seed), r.shards,
              static_cast<unsigned long long>(r.profit_bits),
              static_cast<unsigned long long>(r.matching_rounds),
              static_cast<unsigned long long>(r.proposals),
              static_cast<unsigned long long>(r.rejections),
              static_cast<unsigned long long>(r.messages_sent),
              static_cast<unsigned long long>(r.bus_rounds));
  for (std::size_t i = 0; i < r.shards; ++i)
    std::printf("%s%llu", i == 0 ? "" : ", ",
                static_cast<unsigned long long>(r.rounds_per_shard[i]));
  std::printf("}, %lluull, %lluull},\n", static_cast<unsigned long long>(r.boundary_ues),
              static_cast<unsigned long long>(r.boundary_ues_reconciled));
}

constexpr ShardedGoldenRow kShardedGolden[] = {
    {1ull, 2, 0x40b74c1f11ce2a50ull, 6ull, 1126ull, 626ull, 9153ull, 40ull,
     {3, 6}, 271ull, 271ull},
    {1ull, 4, 0x40b74b8bc5107728ull, 5ull, 1344ull, 844ull, 1058ull, 22ull,
     {0, 0, 0, 5}, 458ull, 458ull},
    {1ull, 8, 0x40b74b5905203e93ull, 0ull, 1407ull, 907ull, 0ull, 0ull,
     {0, 0, 0, 0, 0, 0, 0, 0}, 500ull, 500ull},
    {2ull, 2, 0x40b77b0bdeb7fb50ull, 6ull, 1160ull, 660ull, 8648ull, 44ull,
     {4, 6}, 288ull, 288ull},
    {2ull, 4, 0x40b77d8c6d28d1eaull, 3ull, 1326ull, 826ull, 866ull, 14ull,
     {0, 0, 0, 3}, 459ull, 459ull},
    {2ull, 8, 0x40b77cdc8379a3aeull, 0ull, 1402ull, 902ull, 0ull, 0ull,
     {0, 0, 0, 0, 0, 0, 0, 0}, 500ull, 500ull},
    {3ull, 2, 0x40b726e53fc50630ull, 7ull, 1156ull, 656ull, 8887ull, 48ull,
     {4, 7}, 288ull, 288ull},
    {3ull, 4, 0x40b7276a65e86341ull, 4ull, 1314ull, 814ull, 1029ull, 18ull,
     {0, 0, 0, 4}, 456ull, 456ull},
    {3ull, 8, 0x40b728221feaf97eull, 0ull, 1404ull, 904ull, 0ull, 0ull,
     {0, 0, 0, 0, 0, 0, 0, 0}, 500ull, 500ull},
};

// See BusFaultStreamPinned below; regenerated alongside kGolden.
constexpr std::uint64_t kBusFaultStreamHash = 0x4fdb0e93353ec4adull;

TEST(GoldenRuntime, ByteIdenticalAcrossSeeds) {
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    for (int seed = 1; seed <= kSeeds; ++seed)
      print_row(run_probes(static_cast<std::uint64_t>(seed)));
    GTEST_SKIP() << "regen mode: rows printed to stdout";
  }
  for (const GoldenRow& want : kGolden) {
    const GoldenRow got = run_probes(want.seed);
    SCOPED_TRACE("seed " + std::to_string(want.seed));
    EXPECT_EQ(got.dec_bus_rounds, want.dec_bus_rounds);
    EXPECT_EQ(got.dec_messages_sent, want.dec_messages_sent);
    EXPECT_EQ(got.dec_matching_rounds, want.dec_matching_rounds);
    EXPECT_EQ(got.dec_profit_bits, want.dec_profit_bits);
    EXPECT_EQ(got.dec_trace_hash, want.dec_trace_hash);
    EXPECT_EQ(got.dec_csv_hash, want.dec_csv_hash);
    EXPECT_EQ(got.flt_bus_rounds, want.flt_bus_rounds);
    EXPECT_EQ(got.flt_messages_sent, want.flt_messages_sent);
    EXPECT_EQ(got.flt_dropped, want.flt_dropped);
    EXPECT_EQ(got.flt_duplicated, want.flt_duplicated);
    EXPECT_EQ(got.flt_delayed, want.flt_delayed);
    EXPECT_EQ(got.flt_orphaned, want.flt_orphaned);
    EXPECT_EQ(got.flt_cloud_fallbacks, want.flt_cloud_fallbacks);
    EXPECT_EQ(got.flt_profit_bits, want.flt_profit_bits);
  }
}

TEST(GoldenRuntime, ChurnByteIdenticalAcrossSeeds) {
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
      print_churn_row(run_churn_probe(seed, /*faulted=*/false));
    print_churn_row(run_churn_probe(4, /*faulted=*/true));
    GTEST_SKIP() << "regen mode: rows printed to stdout";
  }
  for (const ChurnGoldenRow& want : kChurnGolden) {
    const ChurnGoldenRow got = run_churn_probe(want.seed, want.faulted);
    SCOPED_TRACE("churn seed " + std::to_string(want.seed));
    EXPECT_EQ(got.log_hash, want.log_hash);
    EXPECT_EQ(got.final_profit_bits, want.final_profit_bits);
    EXPECT_EQ(got.readmitted, want.readmitted);
    EXPECT_EQ(got.resolves, want.resolves);
    EXPECT_EQ(got.gap_last_bits, want.gap_last_bits);
    EXPECT_EQ(got.gap_max_bits, want.gap_max_bits);
    EXPECT_EQ(got.final_cloud, want.final_cloud);
    EXPECT_EQ(got.fault_actions, want.fault_actions);
  }
}

TEST(GoldenRuntime, ScaleAndServingCountersPinned) {
  for (const ScaleGoldenRow& want : kScaleGolden) {
    const ScaleGoldenRow got = run_scale_probe(want.ues);
    SCOPED_TRACE("ues " + std::to_string(want.ues));
    EXPECT_EQ(got.bus_rounds, want.bus_rounds);
    EXPECT_EQ(got.messages_sent, want.messages_sent);
    EXPECT_EQ(got.matching_rounds, want.matching_rounds);
    EXPECT_EQ(got.flight_events_retained, want.flight_events_retained);
  }
  for (const ServingGoldenRow& want : kServingGolden) {
    const ServingGoldenRow got = run_serving_probe(want.faulted);
    SCOPED_TRACE(want.faulted ? "serving, crash armed" : "serving");
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.arrivals, want.arrivals);
    EXPECT_EQ(got.departures, want.departures);
    EXPECT_EQ(got.moves, want.moves);
    EXPECT_EQ(got.reassociations, want.reassociations);
    EXPECT_EQ(got.cross_region_moves, want.cross_region_moves);
    EXPECT_EQ(got.readmitted, want.readmitted);
    EXPECT_EQ(got.orphaned, want.orphaned);
    EXPECT_EQ(got.recovery_events_max, want.recovery_events_max);
    EXPECT_EQ(got.resolves, want.resolves);
    EXPECT_EQ(got.final_active, want.final_active);
    EXPECT_EQ(got.final_served, want.final_served);
    EXPECT_EQ(got.final_profit_bits, want.final_profit_bits);
    EXPECT_EQ(got.gap_last_bits, want.gap_last_bits);
    EXPECT_EQ(got.flight_events_retained, want.flight_events_retained);
    EXPECT_EQ(got.postmortem_dumps, want.postmortem_dumps);
    EXPECT_EQ(got.metric_windows, want.metric_windows);
  }
}

TEST(GoldenRuntime, MessageKindCountsPinned) {
  for (const MessageKindGoldenRow& want : kMessageKindGolden) {
    SCOPED_TRACE("ues " + std::to_string(want.ues));
    ScenarioConfig cfg;
    cfg.num_ues = want.ues;
    const Scenario s = generate_scenario(cfg, 1);
    const DecentralizedResult r = run_decentralized_dmra(s);
    EXPECT_EQ(r.messages.requests, want.requests);
    EXPECT_EQ(r.messages.proposes, want.proposes);
    EXPECT_EQ(r.messages.decisions, want.decisions);
    EXPECT_EQ(r.messages.broadcasts, want.broadcasts);
    // On a reliable bus every request is relayed once and answered once.
    EXPECT_EQ(r.messages.requests, r.dmra.proposals_sent);
    EXPECT_EQ(r.messages.proposes, r.messages.requests);
    EXPECT_EQ(r.messages.decisions, 2 * r.messages.requests);
    const std::uint64_t sum =
        want.requests + want.proposes + want.decisions + want.broadcasts;
    for (const ScaleGoldenRow& scale : kScaleGolden) {
      if (scale.ues == want.ues) {
        EXPECT_EQ(sum, scale.messages_sent);
      }
    }
    EXPECT_EQ(r.messages.requests + r.messages.proposes + r.messages.decisions +
                  r.messages.broadcasts,
              r.bus.messages_sent);
  }
  // Under link faults the kinds still add up: re-acks, rebroadcasts and
  // delay-displaced relays are counted where they are sent.
  ScenarioConfig cfg;
  cfg.num_ues = 500;
  const Scenario s = generate_scenario(cfg, 1);
  FaultPlan plan;
  plan.link = LinkFaults{.drop_probability = 0.1,
                         .duplicate_probability = 0.1,
                         .delay_probability = 0.1,
                         .max_delay_rounds = 2};
  NetworkConditions net;
  net.seed = 3;
  net.faults = &plan;
  const DecentralizedResult r = run_decentralized_dmra(s, {}, net);
  EXPECT_GT(r.bus.messages_duplicated, 0u);
  EXPECT_EQ(r.messages.requests + r.messages.proposes + r.messages.decisions +
                r.messages.broadcasts,
            r.bus.messages_sent);
}

TEST(GoldenRuntime, ShardedCountersPinned) {
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull})
      for (const std::size_t shards : {2u, 4u, 8u})
        print_sharded_row(run_sharded_probe(seed, shards));
    GTEST_SKIP() << "regen mode: rows printed to stdout";
  }
  ASSERT_EQ(std::size(kShardedGolden), 9u);
  for (const ShardedGoldenRow& want : kShardedGolden) {
    const ShardedGoldenRow got = run_sharded_probe(want.seed, want.shards);
    SCOPED_TRACE("seed " + std::to_string(want.seed) + " shards " +
                 std::to_string(want.shards));
    EXPECT_EQ(got.profit_bits, want.profit_bits);
    EXPECT_EQ(got.matching_rounds, want.matching_rounds);
    EXPECT_EQ(got.proposals, want.proposals);
    EXPECT_EQ(got.rejections, want.rejections);
    EXPECT_EQ(got.messages_sent, want.messages_sent);
    EXPECT_EQ(got.bus_rounds, want.bus_rounds);
    EXPECT_EQ(got.rounds_per_shard, want.rounds_per_shard);
    EXPECT_EQ(got.boundary_ues, want.boundary_ues);
    EXPECT_EQ(got.boundary_ues_reconciled, want.boundary_ues_reconciled);
  }
}

// Bus-level pin of the full fault draw order (drop → duplicate → delay)
// and the delayed-before-fresh delivery rule: a scripted send schedule
// under an armed LinkFaults must produce the exact same delivered stream
// — (to, seq, sent_round, payload) per take_inbox, in order — after the
// pooled-inbox rework as before it.
TEST(GoldenRuntime, BusFaultStreamPinned) {
  constexpr std::size_t kAgents = 16;
  constexpr std::uint64_t kRounds = 24;
  MessageBus<std::uint32_t> bus;
  std::vector<AgentId> agents;
  for (std::size_t a = 0; a < kAgents; ++a) agents.push_back(bus.register_agent());
  LinkFaults faults;
  faults.drop_probability = 0.1;
  faults.duplicate_probability = 0.1;
  faults.delay_probability = 0.15;
  faults.max_delay_rounds = 3;
  bus.set_faults(faults, /*seed=*/42);

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  std::uint32_t payload = 0;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t m = 0; m < 3 * kAgents; ++m)
      bus.send(agents[m % kAgents], agents[(m * 5 + 1) % kAgents], payload++);
    bus.deliver();
    for (const AgentId id : agents) {
      const auto inbox = bus.take_inbox(id);
      for (const auto& env : inbox) {
        mix(env.to.idx());
        mix(env.seq);
        mix(env.sent_round);
        mix(env.payload);
      }
    }
  }
  // Drain what the delay faults still hold in flight.
  while (bus.in_flight() > 0) {
    bus.deliver();
    for (const AgentId id : agents) {
      const auto inbox = bus.take_inbox(id);
      for (const auto& env : inbox) {
        mix(env.to.idx());
        mix(env.seq);
        mix(env.sent_round);
        mix(env.payload);
      }
    }
  }
  mix(bus.stats().messages_sent);
  mix(bus.stats().messages_delivered);
  mix(bus.stats().messages_dropped);
  mix(bus.stats().messages_duplicated);
  mix(bus.stats().messages_delayed);
  if (std::getenv("DMRA_GOLDEN_REGEN") != nullptr) {
    std::printf("bus fault stream hash: 0x%llxull\n",
                static_cast<unsigned long long>(h));
    GTEST_SKIP() << "regen mode";
  }
  EXPECT_EQ(h, kBusFaultStreamHash);
}

}  // namespace
}  // namespace dmra
