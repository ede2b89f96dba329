// The message-passing protocol's round loop, shared by the single-bus
// runtime and the region shards (core/decentralized.cpp defines it,
// core/sharded.cpp calls it). Internal to dmra_core: callers use
// run_decentralized_dmra and run_sharded_dmra (core/decentralized.hpp).
#pragma once

#include <cstdint>
#include <span>

#include "core/decentralized.hpp"

namespace dmra {

namespace protocol_detail {

/// Counters of one run_protocol call.
struct ProtocolRun {
  std::size_t rounds = 0;      ///< matching rounds with at least one proposal
  std::size_t proposals = 0;
  std::size_t rejections = 0;
  bool converged = false;      ///< ended on a quiet round, not the round limit
  BusStats bus;
  FaultRecoveryStats recovery;  ///< whole-scenario runs with a fault plan only
  AllocCounters alloc;          ///< whole-scenario runs only
};

/// The message-passing protocol over one membership — the member UEs
/// `ues` and BSs `bss`, both ascending — on a bus of its own: bootstrap
/// broadcast, then per round UE ingest and propose, SP relay up, BS
/// select/commit/reply/broadcast, and SP relay down. Writes only the
/// members' view slots (`view_crus`/`view_rrbs`, indexed by candidate
/// slot), their `b_u` rows and their `allocation` entries, so concurrent
/// calls over disjoint memberships may share those. `net == nullptr` runs
/// a region shard of run_sharded_dmra: reliable bus, broadcasts to member
/// candidates only, no per-round audit or allocation sampling, and
/// `core/sharded` labels. Otherwise the membership must be the whole
/// scenario (run_decentralized_dmra), faults and recovery included.
ProtocolRun run_protocol(const Scenario& scenario, const DmraConfig& config,
                         const NetworkConditions* net, std::span<const UeId> ues,
                         std::span<const BsId> bss, std::span<std::uint32_t> view_crus,
                         std::span<std::uint32_t> view_rrbs, LiveCandidates& b_u,
                         Allocation& allocation);

}  // namespace protocol_detail

}  // namespace dmra
