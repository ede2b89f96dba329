// The persistent allocator process behind the churn engine
// (sim/churn.hpp) — the paper's "continuously adjust the resource
// allocation scheme" (§V/§VII) made operational: UEs are admitted,
// removed and re-placed one at a time against a live ledger, by
// whichever scheme's Allocator::place() rule the caller chose (DMRA's
// Eq. 17 arg-min by default).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dmra_allocator.hpp"
#include "mec/allocation.hpp"
#include "mec/allocator.hpp"
#include "mec/resources.hpp"

namespace dmra {

/// Tuning for the default (DMRA) placement rule.
struct IncrementalConfig {
  /// Matching parameters: ρ of the Eq. 17 placement, and of the
  /// from-scratch resolve baseline sim/churn runs beside it. The same
  /// config shape the full solver and the decentralized runtime take.
  DmraConfig dmra;
};

/// A persistent allocator process over one (immutable) scenario: the
/// explicit remove/re-admit surface the serving driver (sim/churn.hpp)
/// feeds one event at a time, instead of batch rebuilds.
///
/// The scenario is treated as a *slot universe*: every UE id is a slot
/// that may be admitted (active, holding resources or cloud-forwarded)
/// or removed (inactive, holding nothing). An inactive slot is
/// indistinguishable from a cloud slot in the Allocation (both are
/// cloud/-1 and contribute zero profit), so check_feasibility and the
/// InvariantAuditor apply unchanged; activity is tracked here.
///
/// Every decision (admit, reattempt) asks the scheme's place() rule and
/// commits its answer. The default rule is DmraAllocator::place, Alg. 1
/// specialized to a single proposer: the UE proposes to its arg-min
/// preference candidate (Eq. 17 against the live ledger) and an
/// uncontended BS accepts any feasible proposal, so one proposal round
/// decides — provably the same outcome solve_dmra_partial computes for
/// one unmatched UE (pinned by tests/core/incremental_test.cpp), at
/// O(|candidates(u)|) per decision instead of O(|U|).
///
/// Fault surface (event-timeline injection, docs/RESILIENCE.md): crash
/// and degradation clamp the live ledger below nominal capacity via
/// ResourceState::clamp_remaining; recover_bs restores it with a
/// recount_remaining. While any clamp is active the ledger legitimately
/// disagrees with a from-scratch recount, so audit_round() mutes itself —
/// the same "repair under muted auditor" rule the decentralized runtime
/// follows — and reports again once capacity_nominal() returns true.
class IncrementalAllocator {
 public:
  /// `allocator` (optional; must outlive this object) supplies the
  /// place() rule; without one, DMRA's rule with `config.dmra`.
  explicit IncrementalAllocator(const Scenario& scenario, IncrementalConfig config = {},
                                const Allocator* allocator = nullptr);

  /// Admit inactive slot u. Returns the serving BS, or nullopt when no
  /// candidate can carry it (cloud-forwarded, still active).
  std::optional<BsId> admit(UeId u);

  /// Retry placement for an *active, cloud-forwarded* slot — the readmit
  /// sweep and crash-recovery drain of sim/churn: capacity may have freed
  /// or recovered since the slot was last decided. Same decision rule as
  /// admit(); returns the BS if it now fits, nullopt to stay at the cloud.
  std::optional<BsId> reattempt(UeId u);

  /// Remove active slot u, releasing its resources (departure).
  void remove(UeId u);

  bool active(UeId u) const { return active_[u.idx()]; }
  std::size_t num_active() const { return num_active_; }

  /// The cloud-dweller index: the smallest slot >= `from` that is active
  /// and cloud-forwarded, or num_ues() when there is none. Walking it
  /// (`u = next_cloud_dweller(u + 1)`) visits every cloud dweller in
  /// ascending slot order at O(dwellers + slots/64), which is how the
  /// readmit sweep of sim/churn avoids scanning the whole slot universe.
  std::size_t next_cloud_dweller(std::size_t from) const;
  /// Active, cloud-forwarded slots (the index's population).
  std::size_t num_cloud_dwellers() const { return num_cloud_; }

  /// Crash BS i: remaining capacity clamps to zero and every UE it serves
  /// is evicted to the cloud (still active — the caller re-admits them).
  /// Evicted UE ids are appended to `orphans` in ascending order.
  /// Returns the eviction count.
  std::size_t crash_bs(BsId i, std::vector<UeId>& orphans);

  /// Recover BS i cold: nominal capacity minus current commitments
  /// (none right after a crash; partial after a degradation recovery).
  void recover_bs(BsId i);

  /// Scale BS i's *remaining* capacity by the given factors (floor),
  /// FaultPlan::CapacityDegradation semantics: admitted UEs keep service.
  void degrade_bs(BsId i, double cru_factor, double rrb_factor);

  /// True iff no crash/degradation clamp is in effect anywhere.
  bool capacity_nominal() const { return clamped_bss_ == 0; }

  /// Report the live ledger + allocation at the audit seam (round 0 =
  /// stateless: feasibility + ledger recount, no monotone-profit chain —
  /// departures lower profit by design). No-op while a clamp is active
  /// or when auditing is disabled.
  void audit_round(std::size_t round) const;

  const Allocation& allocation() const { return allocation_; }
  const ResourceState& state() const { return state_; }
  const Scenario& scenario() const { return *scenario_; }

  /// Eq. 11 profit of the current allocation, maintained incrementally
  /// (Σ pair_profit over served slots — cross-checked against
  /// total_profit() by tests).
  double live_profit() const { return live_profit_; }

 private:
  /// The shared decision: the scheme's place() rule, commit on success,
  /// cloud otherwise.
  std::optional<BsId> place(UeId u);
  /// Sets / clears slot u's bit in the cloud-dweller index.
  void mark_cloud(UeId u, bool on);

  const Scenario* scenario_;
  DmraAllocator dmra_;           ///< the default rule
  const Allocator* allocator_;   ///< the caller's rule, or null for dmra_
  ResourceState state_;
  Allocation allocation_;
  std::vector<bool> active_;
  std::vector<bool> clamped_;  ///< per BS: capacity currently clamped
  /// Bitset over slots, bit set iff the slot is active and cloud-forwarded.
  std::vector<std::uint64_t> cloud_bits_;
  std::size_t num_active_ = 0;
  std::size_t num_cloud_ = 0;
  std::size_t clamped_bss_ = 0;
  double live_profit_ = 0.0;
};

}  // namespace dmra
