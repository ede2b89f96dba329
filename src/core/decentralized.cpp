// The message-passing DMRA protocol: one round loop shared by the
// single-bus runtime (run_decentralized_dmra, the whole scenario) and the
// region shards of run_sharded_dmra (core/sharded.cpp, one region per
// call). This file is the only place the protocol phases live.

#include "core/decentralized.hpp"
#include "core/protocol.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "net/bus.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "util/alloc_hook.hpp"
#include "util/require.hpp"

namespace dmra {

namespace {

using protocol_detail::SnapshotRing;

// ---- Message types -------------------------------------------------------

/// UE → its SP: "propose on my behalf to BS `target`".
struct MsgOffloadRequest {
  UeId ue;
  BsId target;
  std::uint32_t f_u;
};

/// SP → BS: relayed proposal.
struct MsgPropose {
  UeId ue;
  std::uint32_t f_u;
};

/// BS → SP → UE: outcome of a proposal.
struct MsgDecision {
  UeId ue;
  BsId bs;
  bool accept;
};

/// BS → covered UEs: remaining resources after this round, as an index
/// into the snapshot arena the BS published at send time.
struct MsgResourceUpdate {
  BsId bs;
  std::uint32_t snapshot;
};

using Payload = std::variant<MsgOffloadRequest, MsgPropose, MsgDecision, MsgResourceUpdate>;
using Bus = MessageBus<Payload>;

/// Stable sort of proposals by UeId into caller-owned scratch — the
/// stable-sorted permutation is unique, so this is element-for-element
/// identical to std::stable_sort without its per-call temporary-buffer
/// heap allocation (which would break the faulted round loop's
/// zero-allocation budget; tests/core/alloc_test.cpp asserts it).
void stable_sort_by_ue(std::vector<ProposalInfo>& v,
                       std::vector<ProposalInfo>& scratch) {
  const std::size_t n = v.size();
  if (scratch.size() < n) scratch.resize(n);  // grow-only; reserved by caller
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, k = lo;
      // Left run wins ties: that is exactly the stability guarantee.
      while (i < mid && j < hi) scratch[k++] = v[j].ue < v[i].ue ? v[j++] : v[i++];
      while (i < mid) scratch[k++] = v[i++];
      while (j < hi) scratch[k++] = v[j++];
    }
    std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(n),
              v.begin());
  }
}


// ---- Agents ---------------------------------------------------------------

// A UE's view of its candidates' remaining resources lives in two flat
// caller-owned arrays (one CRU word — the UE's own service — and one RRB
// word per candidate slot, indexed by Scenario::candidate_offset). They
// are prefilled with the BSs' static capacities — the optimistic prior a
// UE is allowed to hold for a candidate it has not heard from (possible
// only on a lossy network; the reliable bootstrap covers everyone), and
// the safe one: a pessimistic prior would make choose_proposal_soa erase
// a live candidate permanently. Broadcast ingest overwrites the slot with
// the ring values in arrival order (last write wins).

struct UeAgent {
  UeId ue;
  AgentId address;
  AgentId sp_address;
  bool matched = false;
  bool at_cloud = false;

  // Fault-mode bookkeeping, all inert unless a FaultPlan injects faults.
  BsId last_target{};            ///< BS of the most recent proposal
  bool awaiting = false;         ///< proposal outstanding, no decision heard
  std::uint32_t unanswered = 0;  ///< consecutive silent round trips to last_target
  BsId serving_bs{};             ///< BS whose accept matched us (crash suspicion)
  bool has_serving = false;
  std::uint32_t serving_silence = 0;  ///< rounds without hearing serving_bs
  bool heard_serving = false;         ///< scratch: heard from serving_bs this round
  bool needs_repair = false;  ///< orphaned by a BS crash, not yet re-placed
};

struct SpAgent {
  SpId sp;
  AgentId address;
};

struct BsAgent {
  BsId bs;
  AgentId address;
  BsLocalResources resources;
  std::vector<AgentId> covered_ues;  // broadcast audience
  /// UEs this BS has already admitted, by UeId — on an unreliable network
  /// an accept can be lost and the UE re-proposes; re-ack without
  /// committing twice. Empty (and never read) on a reliable bus.
  std::vector<bool> admitted;
  /// Cleared by a scheduled FaultPlan crash: a dead BS swallows its inbox,
  /// sends nothing, and its resource state is meaningless until recovery.
  bool alive = true;
};

}  // namespace

namespace protocol_detail {

ProtocolRun run_protocol(const Scenario& scenario, const DmraConfig& config,
                         const NetworkConditions* net, std::span<const UeId> ues,
                         std::span<const BsId> bss, std::span<std::uint32_t> view_crus,
                         std::span<std::uint32_t> view_rrbs, LiveCandidates& b_u,
                         Allocation& allocation) {
  const std::size_t nu = scenario.num_ues();
  const std::size_t nb = scenario.num_bss();
  const std::size_t nk = scenario.num_sps();
  // A region shard (net == nullptr) runs the reliable protocol only; the
  // whole-scenario run owns the fault, audit and allocation-sampling paths.
  const bool shard = net == nullptr;
  DMRA_REQUIRE_MSG(shard || (ues.size() == nu && bss.size() == nb),
                   "only a region shard runs over part of the scenario");
  const bool lossy = !shard && net->drop_probability > 0.0;
  const FaultPlan* const plan = shard ? nullptr : net->faults;
  const bool faulty = plan != nullptr && plan->any();
  if (faulty) {
    plan->validate(nb);
    DMRA_REQUIRE_MSG(net->drop_probability == 0.0,
                     "NetworkConditions::drop_probability and a FaultPlan are mutually "
                     "exclusive — put the loss rate in FaultPlan::link instead");
  }
  // "unreliable" gates every defensive behaviour shared by the legacy
  // lossy path and the fault-plan path (re-acks, rebroadcasts, relaxed
  // audits). "faulty" alone gates the recovery machinery.
  const bool unreliable = lossy || faulty;
  // Under link faults a UE's proposal can reach a BS in several
  // generations at once (the fresh send, a duplicate copy, and delayed
  // originals from up to max_delay_rounds earlier rounds); every
  // proposal-sized pool is reserved with this headroom so faulted rounds
  // stay allocation-free. Without faults the bound is one per UE.
  const std::size_t generations =
      faulty && plan->link.any()
          ? 2 + (plan->link.delay_probability > 0.0
                     ? static_cast<std::size_t>(plan->link.max_delay_rounds)
                     : 0)
          : 1;
  const std::string_view source = shard ? "core/sharded" : "core/decentralized";
  const std::string_view bootstrap_label =
      shard ? "core/sharded:bootstrap" : "core/decentralized:bootstrap";

  Bus bus;
  if (lossy) bus.set_loss(net->drop_probability, net->seed);
  if (faulty && plan->link.any()) bus.set_faults(plan->link, net->seed);
  const std::size_t mu = ues.size();
  const std::size_t mb = bss.size();

  // Member-local indices: members are ascending, and the whole scenario is
  // the identity map.
  const auto local_ue = [&](UeId u) -> std::size_t {
    if (mu == nu) return u.idx();
    return static_cast<std::size_t>(std::lower_bound(ues.begin(), ues.end(), u) -
                                    ues.begin());
  };
  const auto local_bs = [&](BsId i) -> std::size_t {
    if (mb == nb) return i.idx();
    return static_cast<std::size_t>(std::lower_bound(bss.begin(), bss.end(), i) -
                                    bss.begin());
  };

  // Ring capacity: a snapshot only has to survive from publish until the
  // broadcasts referencing it are ingested — at most a couple of protocol
  // rounds plus whatever delay faults can add, during which every live BS
  // publishes at most once per round. 8 rounds of slack is far beyond
  // that window; an eviction would trip the ring's stamp check.
  const std::size_t ring_cap = std::max<std::size_t>(
      1, mb * (8 + (faulty ? static_cast<std::size_t>(plan->link.max_delay_rounds) : 0)));
  SnapshotRing arena(scenario.num_services(), ring_cap);
  std::vector<UeAgent> ue_agents(mu);
  std::vector<SpAgent> sp_agents(nk);
  std::vector<BsAgent> bs_agents(mb);

  // Registration order — SPs, member UEs, member BSs — fixes the
  // (recipient, seq) delivery order, so one shard holding the whole
  // scenario replays the single-bus run message for message.
  for (std::size_t k = 0; k < nk; ++k) {
    sp_agents[k].sp = SpId{static_cast<std::uint32_t>(k)};
    sp_agents[k].address = bus.register_agent();
  }
  for (std::size_t m = 0; m < mu; ++m) {
    UeAgent& a = ue_agents[m];
    a.ue = ues[m];
    a.address = bus.register_agent();
    a.sp_address = sp_agents[scenario.ue(a.ue).sp.idx()].address;
    const auto cands = scenario.candidates(a.ue);
    const std::size_t off = scenario.candidate_offset(a.ue);
    const std::size_t svc = scenario.ue(a.ue).service.idx();
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const BaseStation& bsc = scenario.bs(cands[c]);
      view_crus[off + c] = bsc.cru_capacity[svc];
      view_rrbs[off + c] = bsc.num_rrbs;
    }
    if (b_u.empty(a.ue)) a.at_cloud = true;
  }
  for (std::size_t m = 0; m < mb; ++m) {
    BsAgent& a = bs_agents[m];
    a.bs = bss[m];
    a.address = bus.register_agent();
    const BaseStation& b = scenario.bs(a.bs);
    a.resources.crus = b.cru_capacity;
    a.resources.rrbs = b.num_rrbs;
    if (unreliable) a.admitted.assign(nu, false);
  }
  // Broadcast audiences, UE-ascending per BS: built UE-major, so each
  // BS's list grows in UE order. The whole-scenario run reaches every UE
  // in coverage (a walk of each UE's link row); a shard only the member
  // UEs that list the BS as a candidate (a UE only ever reads candidate
  // slots).
  if (shard) {
    for (const UeAgent& a : ue_agents)
      for (const BsId i : scenario.candidates(a.ue)) {
        const std::size_t m = local_bs(i);
        DMRA_REQUIRE_MSG(m < mb && bss[m] == i,
                         "region shard UE with a candidate outside its region");
        bs_agents[m].covered_ues.push_back(a.address);
      }
  } else {
    for (const UeAgent& a : ue_agents)
      scenario.for_each_covering_bs(
          a.ue, [&](BsId i) { bs_agents[i.idx()].covered_ues.push_back(a.address); });
  }

  // Warm the bus pools to the per-deliver high-water mark: the BS phase is
  // the widest (one decision per proposer — times the fault generation
  // headroom the SP relays can forward in one round — plus a broadcast
  // copy per covered UE, one multicast per BS), so after this the
  // steady-state round loop never grows a bus buffer. reserve() runs
  // after set_faults() above, so it also sizes the delay parking queue
  // from the armed fault rates.
  std::size_t sum_covered = 0;
  for (const BsAgent& b : bs_agents) sum_covered += b.covered_ues.size();
  bus.reserve(2 * mu * generations + sum_covered, 2 * mu * generations + mb);

  ProtocolRun run;

  // Tracing: a single pointer test when disabled; everything else hides
  // behind it. traced_profit mirrors the BSs' cumulative admissions and
  // served counts the members the allocation holds at a BS.
  obs::TraceRecorder* const rec = obs::recorder();
  double traced_profit = 0.0;
  std::size_t served = 0;
  if (rec != nullptr) {
    rec->take_tally();  // drop any tally left by a previous producer
    rec->set_round(0);
    obs::TraceEvent e;
    e.kind = obs::EventKind::kPhase;
    e.label = bootstrap_label;
    e.value = mb;
    rec->record(e);
  }
  // Flight recorder (obs/flight.hpp): always-on post-mortem channel.
  // Unlike the trace recorder it sees only the low-rate narrative —
  // faults, repairs, phases, termination — never per-proposal events, so
  // its steady-state cost is a handful of ring stores per round.
  obs::FlightRecorder* const fr = obs::flight();
  if (fr != nullptr) {
    if (!shard) fr->reserve_agents(nu, nb);
    fr->set_round(0);
    obs::TraceEvent e;
    e.kind = obs::EventKind::kPhase;
    e.label = bootstrap_label;
    e.value = mb;
    fr->record(e);
  }
  const auto record_fault = [&](obs::EventKind kind, std::string_view label,
                                std::uint32_t ue, std::uint32_t bs, std::uint64_t value) {
    if (rec == nullptr && fr == nullptr) return;
    obs::TraceEvent e;
    e.kind = kind;
    e.label = label;
    e.ue = ue;
    e.bs = bs;
    e.value = value;
    if (rec != nullptr) rec->record(e);
    if (fr != nullptr) fr->record(e);
  };

  // ---- Bootstrap: every BS broadcasts its initial resource levels so UEs
  // have a complete view of their candidates before the first proposal.
  for (BsAgent& b : bs_agents) {
    bus.multicast(b.address, b.covered_ues, MsgResourceUpdate{b.bs, arena.publish(b.resources)});
    run.messages.broadcasts += b.covered_ues.size();
    if (rec != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kBroadcast;
      e.bs = b.bs.value;
      e.value = b.covered_ues.size();
      rec->record(e);
    }
  }
  bus.deliver();

  // On a lossy network a round can lose every proposal it carried, so the
  // |U|+1 bound no longer holds exactly; give retries headroom. A fault
  // plan additionally needs the run to outlive its schedule (a crash at
  // round r must fire even if matching would have converged at r-1) plus
  // headroom for the recovery machinery to settle.
  const std::size_t round_limit =
      config.max_rounds > 0
          ? config.max_rounds
          : (faulty ? 2 * mu + 64 + plan->schedule_horizon()
                    : (lossy ? 2 * mu + 16 : mu + 1));

  // Under faults a quiet round (no proposals) is not proof of convergence:
  // a delayed message may still be in flight, a scheduled crash may be
  // about to orphan someone, or a suspicion countdown may be about to
  // release a silently-orphaned UE. Require enough consecutive quiet
  // rounds to outlast every countdown, an empty bus, and a spent schedule.
  const std::size_t quiet_grace =
      faulty ? std::max<std::size_t>(
                   net->recovery.suspect_after + 2,
                   plan->link.delay_probability > 0.0
                       ? static_cast<std::size_t>(plan->link.max_delay_rounds) + 1
                       : 0)
             : 0;
  const auto schedule_ahead = [&](std::size_t round) {
    for (const BsOutage& o : plan->outages) {
      if (o.crash_round > round) return true;
      if (o.recover_round != kNeverRecovers && o.recover_round > round) return true;
    }
    for (const CapacityDegradation& d : plan->degradations)
      if (d.round > round) return true;
    return false;
  };
  std::size_t quiet_rounds = 0;

  // BS-phase scratch, hoisted out of the round loop and reserved to the
  // worst case (one proposal per member UE per generation — see
  // `generations` above), so per round the cost is a clear() that keeps
  // capacity, not a fresh heap allocation per BS.
  std::vector<ProposalInfo> fresh;
  std::vector<UeId> reacks;
  std::vector<ProposalInfo> sort_scratch;
  fresh.reserve(mu * generations);
  reacks.reserve(mu * generations);
  sort_scratch.reserve(mu * generations);
  BsSelectWorkspace ws;
  ws.reserve(scenario.num_services(), mu * generations);
  const std::vector<UeId> empty_accepts;

  // Heap-allocation accounting: one count() sample per round when a probe
  // is installed (the zero-allocation test), one dead branch otherwise.
  // The first rounds warm the lazily-grown pools (trace sinks,
  // libstdc++ internals); rounds past the settle window are asserted
  // allocation-free. A shard runs on a pool worker and is not sampled.
  constexpr std::uint64_t kAllocSettleRounds = 2;
  const bool measuring = !shard && alloc_hook::active();
  run.alloc.measured = measuring;
  run.alloc.settle_rounds = kAllocSettleRounds;
  std::uint64_t alloc_mark = measuring ? alloc_hook::count() : 0;
  const auto sample_round = [&](std::size_t round) {
    if (!measuring) return;
    const std::uint64_t now = alloc_hook::count();
    const std::uint64_t delta = now - alloc_mark;
    alloc_mark = now;
    run.alloc.total_allocations += delta;
    if (round >= kAllocSettleRounds) run.alloc.steady_state_allocations += delta;
  };

  for (std::size_t round = 0; round < round_limit; ++round) {
    const std::uint64_t msgs_before = bus.stats().messages_sent;
    if (rec != nullptr) rec->set_round(round);
    if (fr != nullptr) fr->set_round(round);

    // ---- Fault schedule: apply this round's crashes / recoveries /
    // degradations before anyone acts. The injector is an out-of-band
    // scheduler, not an agent: it may touch BS state and the authoritative
    // allocation, but UEs only ever learn of a fault through the protocol
    // (silence, lost decisions) — that is what is under test.
    if (faulty) {
      for (const BsOutage& o : plan->outages) {
        if (o.crash_round == round && bs_agents[local_bs(o.bs)].alive) {
          BsAgent& cb = bs_agents[local_bs(o.bs)];
          cb.alive = false;
          std::fill(cb.admitted.begin(), cb.admitted.end(), false);
          ++run.recovery.bs_crashes;
          record_fault(obs::EventKind::kFault, "bs-crash", obs::kNoId, o.bs.value, round);
          if (fr != nullptr) fr->trigger("bs-crash", round, o.bs.value);
          for (UeAgent& a : ue_agents) {
            const auto serving = allocation.bs_of(a.ue);
            if (!serving || *serving != o.bs) continue;
            if (rec != nullptr) traced_profit -= scenario.pair_profit(a.ue, o.bs);
            allocation.assign_cloud(a.ue);
            --served;
            a.needs_repair = true;
            ++run.recovery.orphaned_ues;
          }
        }
        if (o.recover_round == round && !bs_agents[local_bs(o.bs)].alive) {
          BsAgent& rb = bs_agents[local_bs(o.bs)];
          rb.alive = true;
          const BaseStation& b = scenario.bs(o.bs);
          rb.resources.crus = b.cru_capacity;  // reboot with nominal capacity
          rb.resources.rrbs = b.num_rrbs;
          ++run.recovery.bs_recoveries;
          record_fault(obs::EventKind::kRepair, "bs-recover", obs::kNoId, o.bs.value,
                       round);
        }
      }
      for (const CapacityDegradation& d : plan->degradations) {
        if (d.round != round || !bs_agents[local_bs(d.bs)].alive) continue;
        BsLocalResources& r = bs_agents[local_bs(d.bs)].resources;
        for (std::uint32_t& c : r.crus)
          c = static_cast<std::uint32_t>(static_cast<double>(c) * d.cru_factor);
        r.rrbs = static_cast<std::uint32_t>(static_cast<double>(r.rrbs) * d.rrb_factor);
        ++run.recovery.capacity_degradations;
        record_fault(obs::EventKind::kFault, "bs-degrade", obs::kNoId, d.bs.value, round);
      }
    }

    // ---- UE phase: ingest broadcasts & decisions, then propose.
    std::size_t sent_this_round = 0;
    // dmra::hotpath begin(ue-propose)
    for (UeAgent& a : ue_agents) {
      a.heard_serving = false;
      const std::span<const BsId> cands = scenario.candidates(a.ue);
      const std::size_t off = scenario.candidate_offset(a.ue);
      const std::size_t svc = scenario.ue(a.ue).service.idx();
      for (const auto& env : bus.take_inbox(a.address)) {
        if (const auto* upd = std::get_if<MsgResourceUpdate>(&env.payload)) {
          // Broadcasts from covering-but-non-candidate BSs carry no
          // information this UE will ever query; the proposal logic only
          // reads candidate slots.
          const auto it = std::lower_bound(cands.begin(), cands.end(), upd->bs);
          if (it != cands.end() && *it == upd->bs) {
            const std::size_t slot = off + static_cast<std::size_t>(it - cands.begin());
            const SnapshotRing::Levels levels = arena.read(upd->snapshot, svc);
            view_crus[slot] = levels.crus;
            view_rrbs[slot] = levels.rrbs;
          }
          if (faulty && a.has_serving && upd->bs == a.serving_bs) a.heard_serving = true;
        } else if (const auto* dec = std::get_if<MsgDecision>(&env.payload)) {
          if (faulty) {
            if (a.awaiting && dec->bs == a.last_target) {
              a.awaiting = false;
              a.unanswered = 0;
            }
            if (a.has_serving && dec->bs == a.serving_bs) a.heard_serving = true;
          }
          if (dec->accept) {
            a.matched = true;
            if (faulty) {
              a.serving_bs = dec->bs;
              a.has_serving = true;
              a.serving_silence = 0;
              a.heard_serving = true;
            }
          } else if (config.drop_rejected) {
            b_u.erase_bs(scenario, a.ue, dec->bs);  // move down the list, GS-style
          }
        }
      }
      // Crash suspicion: under faults every live BS rebroadcasts every
      // round, so sustained silence from the serving BS means it is down.
      // A false alarm (broadcasts dropped several rounds in a row) only
      // costs quality: the UE re-proposes and the live BS re-acks.
      if (faulty && a.matched && a.has_serving) {
        if (a.heard_serving) {
          a.serving_silence = 0;
        } else if (++a.serving_silence > net->recovery.suspect_after) {
          a.matched = false;
          a.has_serving = false;
          a.serving_silence = 0;
          ++run.recovery.suspected_serving_bs;
          record_fault(obs::EventKind::kRepair, "suspect-serving-bs", a.ue.value,
                       a.serving_bs.value, round);
        }
      }
      if (a.matched || a.at_cloud) continue;
      // Bounded re-propose: an unanswered proposal is retried, but only
      // max_reproposals times against the same silent BS before the UE
      // presumes it dead and moves down its list. This is what turns a
      // black-holed BS from a livelock into a mere preference downgrade.
      if (faulty && a.awaiting) {
        ++a.unanswered;
        ++run.recovery.reproposals;
        if (a.unanswered >= net->recovery.max_reproposals) {
          b_u.erase_bs(scenario, a.ue, a.last_target);
          a.awaiting = false;
          a.unanswered = 0;
          ++run.recovery.presumed_dead;
          record_fault(obs::EventKind::kRepair, "presume-bs-dead", a.ue.value,
                       a.last_target.value, round);
        }
      }
      const auto view = [&view_crus, &view_rrbs](std::size_t slot, BsId) {
        return std::pair<std::uint32_t, std::uint32_t>{view_crus[slot], view_rrbs[slot]};
      };
      const auto choice = choose_proposal_soa(scenario, b_u, a.ue, config.rho, view);
      if (!choice) {
        a.at_cloud = true;
        continue;
      }
      const auto f_u = live_coverage_count_soa(scenario, a.ue, view);
      bus.send(a.address, a.sp_address, MsgOffloadRequest{a.ue, *choice, f_u});
      ++run.messages.requests;
      ++sent_this_round;
      if (faulty) {
        if (a.last_target != *choice) a.unanswered = 0;
        a.last_target = *choice;
        a.awaiting = true;
      }
      if (rec != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kProposal;
        e.ue = a.ue.value;
        e.bs = choice->value;
        e.service = scenario.ue(a.ue).service.value;
        e.value = f_u;
        rec->record(e);
      }
    }
    // dmra::hotpath end(ue-propose)
    bus.deliver();
    if (sent_this_round == 0) {
      if (!faulty) {
        run.converged = true;
        sample_round(round);
        break;
      }
      ++quiet_rounds;
      if (quiet_rounds > quiet_grace && bus.in_flight() == 0 && !schedule_ahead(round)) {
        run.converged = true;
        sample_round(round);
        break;
      }
    } else {
      quiet_rounds = 0;
    }
    run.proposals += sent_this_round;
    ++run.rounds;

    // ---- SP relay phase (up): forward offload requests to the BSs. On a
    // phase-aligned bus only requests can be here, but delay faults land
    // messages at ANY deliver(), so a relay must route whatever shows up:
    // a late decision goes down immediately instead of throwing.
    // dmra::hotpath begin(sp-relay-up)
    for (SpAgent& sp : sp_agents) {
      for (const auto& env : bus.take_inbox(sp.address)) {
        if (const auto* req = std::get_if<MsgOffloadRequest>(&env.payload)) {
          bus.send(sp.address, bs_agents[local_bs(req->target)].address,
                   MsgPropose{req->ue, req->f_u});
          ++run.messages.proposes;
        } else {
          const auto& dec = std::get<MsgDecision>(env.payload);
          bus.send(sp.address, ue_agents[local_ue(dec.ue)].address, dec);
          ++run.messages.decisions;
        }
      }
    }
    // dmra::hotpath end(sp-relay-up)
    bus.deliver();

    // ---- BS phase: select, commit locally, reply, broadcast.
    std::size_t accepted_this_round = 0;
    // dmra::hotpath begin(bs-accept)
    for (BsAgent& b : bs_agents) {
      // A crashed BS is a black hole: proposals die in its inbox and no
      // decision or broadcast ever leaves. UEs must discover this through
      // the protocol (bounded re-propose, serving-BS suspicion).
      if (faulty && !b.alive) {
        bus.take_inbox(b.address);
        continue;
      }
      fresh.clear();
      reacks.clear();
      for (const auto& env : bus.take_inbox(b.address)) {
        const auto& p = std::get<MsgPropose>(env.payload);
        // A UE this BS already admitted can only re-propose because the
        // accept got lost: re-ack idempotently, never commit twice.
        if (unreliable && b.admitted[p.ue.idx()]) {
          reacks.push_back(p.ue);
        } else {
          fresh.push_back(ProposalInfo{p.ue, p.f_u});
        }
      }
      // Duplication/delay can land two generations of the same UE's
      // proposal in one inbox; admit (and answer) each UE at most once.
      if (faulty && fresh.size() > 1) {
        stable_sort_by_ue(fresh, sort_scratch);
        fresh.erase(std::unique(fresh.begin(), fresh.end(),
                                [](const ProposalInfo& x, const ProposalInfo& y) {
                                  return x.ue == y.ue;
                                }),
                    fresh.end());
      }
      if (fresh.empty() && reacks.empty() && !unreliable) continue;

      const std::vector<UeId>& accepted =
          fresh.empty() ? empty_accepts
                        : bs_select(scenario, b.bs, fresh, b.resources, ws, config);

      for (UeId u : accepted) {
        const UserEquipment& e = scenario.ue(u);
        const LinkStats& l = scenario.link(u, b.bs);
        DMRA_REQUIRE(b.resources.crus[e.service.idx()] >= e.cru_demand);
        DMRA_REQUIRE(b.resources.rrbs >= l.n_rrbs);
        b.resources.crus[e.service.idx()] -= e.cru_demand;
        b.resources.rrbs -= l.n_rrbs;
        if (allocation.is_cloud(u)) ++served;
        allocation.assign(u, b.bs);
        if (unreliable) b.admitted[u.idx()] = true;
        ++accepted_this_round;
        if (rec != nullptr) traced_profit += scenario.pair_profit(u, b.bs);
        // Recovery accounting (run-level bookkeeping, not agent knowledge:
        // the BS cannot tell an orphan from a first-time proposer, which
        // is the point — re-admission needs no special message).
        if (faulty && ue_agents[local_ue(u)].needs_repair) {
          ue_agents[local_ue(u)].needs_repair = false;
          ++run.recovery.repaired_in_protocol;
          run.recovery.recovered_profit += scenario.pair_profit(u, b.bs);
          record_fault(obs::EventKind::kRepair, "re-match", u.value, b.bs.value, round);
        }
      }

      // Reply to every proposer through its SP.
      for (const ProposalInfo& p : fresh) {
        const bool ok =
            std::binary_search(accepted.begin(), accepted.end(), p.ue);
        const AgentId sp_addr = sp_agents[scenario.ue(p.ue).sp.idx()].address;
        bus.send(b.address, sp_addr, MsgDecision{p.ue, b.bs, ok});
      }
      for (UeId u : reacks) {
        const AgentId sp_addr = sp_agents[scenario.ue(u).sp.idx()].address;
        bus.send(b.address, sp_addr, MsgDecision{u, b.bs, true});
      }
      run.messages.decisions += fresh.size() + reacks.size();
      // Broadcast the new resource levels to everyone in coverage; on an
      // unreliable network, rebroadcast every round so dropped updates
      // heal and matched UEs keep hearing their serving BS.
      if (!fresh.empty() || !reacks.empty() || unreliable) {
        bus.multicast(b.address, b.covered_ues,
                      MsgResourceUpdate{b.bs, arena.publish(b.resources)});
        run.messages.broadcasts += b.covered_ues.size();
        if (rec != nullptr) {
          obs::TraceEvent e;
          e.kind = obs::EventKind::kBroadcast;
          e.bs = b.bs.value;
          e.value = b.covered_ues.size();
          rec->record(e);
        }
      }
    }
    // dmra::hotpath end(bs-accept)
    bus.deliver();
    // Delayed proposals can make a round accept more than it sent; clamp
    // instead of letting the size_t difference wrap.
    run.rejections +=
        sent_this_round >= accepted_this_round ? sent_this_round - accepted_this_round
                                               : 0;

    // Cross-check every BS agent's local ledger against a from-scratch
    // recount of the partial allocation (the agents never see each other's
    // state, so on a reliable bus drift here means a protocol bug). On an
    // unreliable bus a BS rightfully holds resources for accepts the UE
    // never received until rebroadcasts heal it, and a re-proposing UE can
    // land on a worse BS, so mid-run only partial feasibility is an
    // invariant: skip the ledger snapshot and the cross-round profit chain.
    // Shards are not audited here: the observer is process-global and not
    // thread-safe, and no shard's ledger spans the scenario; the merged
    // sharded allocation is audited once, after reconcile.
    if (!shard && DMRA_AUDIT_ACTIVE()) {
      audit::RoundContext ctx;
      ctx.scenario = &scenario;
      ctx.allocation = &allocation;
      if (!unreliable) {
        ctx.ledger = audit::snapshot_ledger(
            scenario,
            [&](BsId i, ServiceId j) { return bs_agents[i.idx()].resources.crus[j.idx()]; },
            [&](BsId i) { return bs_agents[i.idx()].resources.rrbs; });
      }
      ctx.round = unreliable ? 0 : run.rounds - 1;
      ctx.source = faulty ? "core/decentralized-faulty"
                          : (lossy ? "core/decentralized-lossy" : "core/decentralized");
      audit::observer()->on_round(ctx);
    }

    // ---- SP relay phase (down): forward decisions to the UEs (and, like
    // the up phase, route any delay-displaced request onward to its BS,
    // which drains its inbox again next round).
    // dmra::hotpath begin(sp-relay-down)
    for (SpAgent& sp : sp_agents) {
      for (const auto& env : bus.take_inbox(sp.address)) {
        if (const auto* dec = std::get_if<MsgDecision>(&env.payload)) {
          bus.send(sp.address, ue_agents[local_ue(dec->ue)].address, *dec);
          ++run.messages.decisions;
        } else {
          const auto& req = std::get<MsgOffloadRequest>(env.payload);
          bus.send(sp.address, bs_agents[local_bs(req.target)].address,
                   MsgPropose{req.ue, req.f_u});
          ++run.messages.proposes;
        }
      }
    }
    // dmra::hotpath end(sp-relay-down)
    bus.deliver();

    if (rec != nullptr) {
      const obs::EventTally tally = rec->take_tally();
      obs::RoundRow row;
      row.source = source;
      row.round = run.rounds - 1;
      row.proposals = tally.proposals;
      row.accepts = tally.accepts;
      row.rejects = tally.rejects;
      row.trim_evictions = tally.trim_evictions;
      row.broadcasts = tally.broadcasts;
      row.messages = bus.stats().messages_sent - msgs_before;
      // "Unmatched" = admitted nowhere and not yet given up. The BS-side
      // allocation is authoritative; at_cloud flags lag one round (UEs
      // learn outcomes at the next ingest), which is exactly the view a
      // round-close observer of the protocol would have.
      std::size_t at_cloud_count = 0;
      for (const UeAgent& a : ue_agents)
        if (a.at_cloud) ++at_cloud_count;
      row.unmatched_ues = mu - served - at_cloud_count;
      row.cumulative_profit = traced_profit;
      for (const BsAgent& b : bs_agents) {
        for (const std::uint32_t c : b.resources.crus) row.cru_headroom += c;
        row.rrb_headroom += b.resources.rrbs;
      }
      rec->finish_round(row);
    }
    if (fr != nullptr) {
      // Cheap aggregate only — no O(nu)/O(nb) scans: the flight round
      // ring is always on, so its cost must stay below what
      // obs.flight_overhead_pct can resolve.
      obs::RoundRow row;
      row.source = source;
      row.round = run.rounds - 1;
      row.proposals = sent_this_round;
      row.accepts = accepted_this_round;
      row.rejects = sent_this_round >= accepted_this_round
                        ? sent_this_round - accepted_this_round
                        : 0;
      row.messages = bus.stats().messages_sent - msgs_before;
      fr->finish_round(row);
    }
    sample_round(round);
  }

  // ---- Final repair pass: orphans the live protocol could not re-place
  // (typically because their candidate list drained while their BSs were
  // down) get one centralized re-match against whatever capacity the
  // surviving BSs still believe they have. Whoever still cannot be placed
  // stays at the cloud — that is the graceful-degradation floor, never a
  // crash or an infeasible allocation.
  if (faulty && net->recovery.final_repair) {
    std::vector<bool> matched(nu, true);
    std::size_t orphan_count = 0;
    for (const UeAgent& a : ue_agents) {
      if (a.needs_repair && allocation.is_cloud(a.ue)) {
        matched[a.ue.idx()] = false;
        ++orphan_count;
      }
    }
    if (orphan_count > 0) {
      ResourceState state(scenario);
      for (std::size_t ui = 0; ui < nu; ++ui) {
        const UeId u{static_cast<std::uint32_t>(ui)};
        if (const auto bs = allocation.bs_of(u)) state.commit(u, *bs);
      }
      // Clamp the global view down to each BS's own ledger: a crashed BS
      // offers nothing, and a degraded (or leak-carrying) BS offers only
      // what it believes it has. The repair pass must never promise
      // capacity the agent would refuse.
      const std::vector<std::uint32_t> none(scenario.num_services(), 0);
      for (const BsAgent& b : bs_agents) {
        if (b.alive)
          state.clamp_remaining(b.bs, b.resources.crus, b.resources.rrbs);
        else
          state.clamp_remaining(b.bs, none, 0);
      }
      DmraResult repair;
      {
        // The repair state is clamped below nominal-minus-allocation, so
        // the solver's own ledger reports would trip the auditor's
        // recount; the partial allocation is re-audited manually below.
        audit::ScopedAuditObserver mute(nullptr);
        repair = solve_dmra_partial(scenario, config, state, allocation, matched);
      }
      run.recovery.repair_rounds = repair.rounds;
      for (UeAgent& a : ue_agents) {
        if (!a.needs_repair || allocation.is_cloud(a.ue)) continue;
        a.needs_repair = false;
        const auto bs = allocation.bs_of(a.ue);
        ++run.recovery.repaired_by_rematch;
        run.recovery.recovered_profit += scenario.pair_profit(a.ue, *bs);
        record_fault(obs::EventKind::kRepair, "repair-rematch", a.ue.value, bs->value,
                     repair.rounds);
      }
      if (rec != nullptr || fr != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kPhase;
        e.label = "core/decentralized:repair";
        e.value = orphan_count;
        if (rec != nullptr) rec->record(e);
        if (fr != nullptr) fr->record(e);
      }
      if (DMRA_AUDIT_ACTIVE()) {
        audit::RoundContext ctx;  // feasibility-only: no ledger survives repair
        ctx.scenario = &scenario;
        ctx.allocation = &allocation;
        ctx.round = 0;
        ctx.source = "core/decentralized-repair";
        audit::observer()->on_round(ctx);
      }
    }
  }
  if (faulty) {
    for (const UeAgent& a : ue_agents)
      if (a.needs_repair) ++run.recovery.cloud_fallbacks;
  }

  run.bus = bus.stats();
  return run;
}

}  // namespace protocol_detail

DecentralizedResult run_decentralized_dmra(const Scenario& scenario,
                                           const DmraConfig& config,
                                           const NetworkConditions& net) {
  DMRA_REQUIRE(config.rho >= 0.0);
  std::vector<UeId> ues(scenario.num_ues());
  for (std::size_t ui = 0; ui < ues.size(); ++ui) ues[ui] = UeId{static_cast<std::uint32_t>(ui)};
  std::vector<BsId> bss(scenario.num_bss());
  for (std::size_t bi = 0; bi < bss.size(); ++bi) bss[bi] = BsId{static_cast<std::uint32_t>(bi)};
  std::vector<std::uint32_t> view_crus(scenario.num_candidate_slots());
  std::vector<std::uint32_t> view_rrbs(scenario.num_candidate_slots());
  LiveCandidates b_u;
  b_u.build(scenario);

  DecentralizedResult result;
  result.dmra.allocation = Allocation(scenario.num_ues());
  const protocol_detail::ProtocolRun run =
      protocol_detail::run_protocol(scenario, config, &net, ues, bss, view_crus, view_rrbs,
                                    b_u, result.dmra.allocation);
  result.dmra.rounds = run.rounds;
  result.dmra.proposals_sent = run.proposals;
  result.dmra.rejections = run.rejections;
  result.bus = run.bus;
  result.messages = run.messages;
  result.recovery = run.recovery;
  result.alloc = run.alloc;

  const bool faulty = net.faults != nullptr && net.faults->any();
  const auto publish_run = [&](obs::MetricsRegistry& m) {
    obs::publish_bus_stats(result.bus, m);
    if (faulty) {
      // Fault metrics exist only on faulty runs: unconditional zeros would
      // change the deterministic metrics JSON of fault-free traces.
      const FaultRecoveryStats& r = result.recovery;
      m.add_counter("fault.bs_crashes", r.bs_crashes);
      m.add_counter("fault.bs_recoveries", r.bs_recoveries);
      m.add_counter("fault.capacity_degradations", r.capacity_degradations);
      m.add_counter("fault.orphaned_ues", r.orphaned_ues);
      m.add_counter("fault.reproposals", r.reproposals);
      m.add_counter("fault.presumed_dead", r.presumed_dead);
      m.add_counter("fault.suspected_serving_bs", r.suspected_serving_bs);
      m.add_counter("fault.repaired_in_protocol", r.repaired_in_protocol);
      m.add_counter("fault.repaired_by_rematch", r.repaired_by_rematch);
      m.add_counter("fault.cloud_fallbacks", r.cloud_fallbacks);
      m.add_counter("fault.repair_rounds", r.repair_rounds);
      m.set_gauge("fault.recovered_profit", r.recovered_profit);
    }
  };
  obs::TraceRecorder* const rec = obs::recorder();
  obs::FlightRecorder* const fr = obs::flight();
  if (rec != nullptr || fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kTermination;
    e.flag = run.converged;
    e.value = result.dmra.rounds;
    e.label = "core/decentralized";
    if (rec != nullptr) {
      rec->record(e);
      publish_run(rec->metrics());
    }
    if (fr != nullptr) {
      fr->record(e);
      publish_run(fr->metrics());
    }
  }
  return result;
}

}  // namespace dmra
