// The message-passing protocol's round loop, shared by the single-bus
// runtime and the region shards (core/decentralized.cpp defines it,
// core/sharded.cpp calls it), and the snapshot ring its broadcasts
// reference. Internal to dmra_core: callers use
// run_decentralized_dmra and run_sharded_dmra (core/decentralized.hpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/decentralized.hpp"
#include "util/require.hpp"

namespace dmra {

namespace protocol_detail {

/// Bounded ring of the resource levels BSs have broadcast. A broadcast
/// publishes ONE snapshot and multicasts one {BsId, index} message to
/// every covered UE, so the bus stores one small body per broadcast
/// instead of a heap-allocated CRU vector per copy. Indices are
/// monotonically increasing, so they double as the epoch stamp: a UE slot
/// holding a larger index is strictly newer.
///
/// UEs copy the values they care about at ingest (see the view arrays in
/// run_protocol), so a snapshot only has to outlive the bus
/// transit of the broadcasts that reference it — a handful of rounds even
/// under maximal delay faults. The ring is sized for that window once at
/// construction (rounded up to a power of two, so a slot is a mask away)
/// and publish() is thereafter allocation-free; every read revalidates
/// its stamp so an undersized ring is a loud contract violation, never a
/// silently stale view.
class SnapshotRing {
 public:
  /// The levels one UE reads from a snapshot: its service's CRUs and the
  /// RRBs.
  struct Levels {
    std::uint32_t crus;
    std::uint32_t rrbs;
  };

  SnapshotRing(std::size_t num_services, std::size_t capacity)
      : stride_(num_services + 1),
        mask_(std::bit_ceil(std::max<std::size_t>(capacity, 1)) - 1),
        words_((mask_ + 1) * stride_, 0),
        stamp_(mask_ + 1, kFree) {}

  std::uint32_t publish(const BsLocalResources& r) {
    // dmra::hotpath begin(snapshot-publish)
    const std::size_t base = static_cast<std::size_t>(next_ & mask_) * stride_;
    words_[base] = r.rrbs;
    std::copy(r.crus.begin(), r.crus.end(), words_.begin() + static_cast<std::ptrdiff_t>(base + 1));
    stamp_[next_ & mask_] = next_;
    return static_cast<std::uint32_t>(next_++);
    // dmra::hotpath end(snapshot-publish)
  }

  Levels read(std::uint32_t snapshot, std::size_t service) const {
    const std::size_t idx = snapshot & mask_;
    DMRA_REQUIRE_MSG(stamp_[idx] == snapshot,
                     "snapshot evicted before ingest: ring sized below the "
                     "in-flight broadcast window");
    const std::size_t base = idx * stride_;
    return {words_[base + 1 + service], words_[base]};
  }

 private:
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

  std::size_t stride_;  // RRB word, then one CRU word per service
  std::size_t mask_;    // capacity - 1, capacity a power of two
  std::uint64_t next_ = 0;
  std::vector<std::uint32_t> words_;
  std::vector<std::uint64_t> stamp_;  // snapshot id currently held per slot
};

/// Counters of one run_protocol call.
struct ProtocolRun {
  std::size_t rounds = 0;      ///< matching rounds with at least one proposal
  std::size_t proposals = 0;
  std::size_t rejections = 0;
  bool converged = false;      ///< ended on a quiet round, not the round limit
  BusStats bus;
  MessageKindCounts messages;
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
