#include "core/incremental.hpp"

#include <bit>

#include "mec/audit.hpp"
#include "mec/resources.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "util/require.hpp"

namespace dmra {

IncrementalAllocator::IncrementalAllocator(const Scenario& scenario,
                                           IncrementalConfig config,
                                           const Allocator* allocator)
    : scenario_(&scenario),
      dmra_(config.dmra),
      allocator_(allocator),
      state_(scenario),
      allocation_(scenario.num_ues()),
      active_(scenario.num_ues(), false),
      clamped_(scenario.num_bss(), false),
      cloud_bits_((scenario.num_ues() + 63) / 64, 0) {}

std::optional<BsId> IncrementalAllocator::admit(UeId u) {
  DMRA_REQUIRE_MSG(!active_[u.idx()], "admit on an already-active slot");
  active_[u.idx()] = true;
  ++num_active_;
  return place(u);
}

std::optional<BsId> IncrementalAllocator::reattempt(UeId u) {
  DMRA_REQUIRE_MSG(active_[u.idx()], "reattempt on an inactive slot");
  DMRA_REQUIRE_MSG(allocation_.is_cloud(u), "reattempt on a served slot");
  return place(u);
}

std::size_t IncrementalAllocator::next_cloud_dweller(std::size_t from) const {
  const std::size_t n = allocation_.num_ues();
  if (from >= n) return n;
  std::size_t w = from / 64;
  // Bits past num_ues() are never set, so any hit is a real slot.
  std::uint64_t bits = cloud_bits_[w] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++w == cloud_bits_.size()) return n;
    bits = cloud_bits_[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void IncrementalAllocator::mark_cloud(UeId u, bool on) {
  std::uint64_t& word = cloud_bits_[u.idx() / 64];
  const std::uint64_t bit = std::uint64_t{1} << (u.idx() % 64);
  if (((word & bit) != 0) == on) return;
  word ^= bit;
  on ? ++num_cloud_ : --num_cloud_;
}

std::optional<BsId> IncrementalAllocator::place(UeId u) {
  const std::optional<BsId> best = allocator_ != nullptr
                                       ? allocator_->place(*scenario_, state_, u)
                                       : dmra_.place(*scenario_, state_, u);
  obs::TraceRecorder* const rec = obs::recorder();
  if (!best) {
    // B_u exhausted (or empty): remote cloud, Alg. 1 line 10.
    allocation_.assign_cloud(u);
    mark_cloud(u, true);
    return std::nullopt;
  }
  if (rec != nullptr) {
    // The proposal carries |F_u|: the candidates that could serve u.
    std::uint32_t live_fu = 0;
    for (const BsId i : scenario_->candidates(u)) live_fu += state_.can_serve(u, i) ? 1 : 0;
    obs::TraceEvent p;
    p.kind = obs::EventKind::kProposal;
    p.ue = u.value;
    p.bs = best->value;
    p.service = scenario_->ue(u).service.value;
    p.value = live_fu;
    rec->record(p);
    obs::TraceEvent d;
    d.kind = obs::EventKind::kDecision;
    d.flag = true;
    d.ue = u.value;
    d.bs = best->value;
    d.service = scenario_->ue(u).service.value;
    rec->record(d);
  }
  mark_cloud(u, false);
  state_.commit(u, *best);
  allocation_.assign(u, *best);
  live_profit_ += scenario_->pair_profit(u, *best);
  return best;
}

void IncrementalAllocator::remove(UeId u) {
  DMRA_REQUIRE_MSG(active_[u.idx()], "remove on an inactive slot");
  active_[u.idx()] = false;
  --num_active_;
  mark_cloud(u, false);
  const auto bs = allocation_.bs_of(u);
  if (!bs) return;  // was cloud-forwarded; nothing held
  live_profit_ -= scenario_->pair_profit(u, *bs);
  // A crashed/degraded BS's ledger is clamped, not committed: releasing
  // into the clamp would manufacture capacity. Recount on recovery
  // instead (recover_bs).
  if (!clamped_[bs->idx()]) state_.release(u, *bs);
  allocation_.assign_cloud(u);
}

std::size_t IncrementalAllocator::crash_bs(BsId i, std::vector<UeId>& orphans) {
  std::size_t evicted = 0;
  for (std::size_t ui = 0; ui < allocation_.num_ues(); ++ui) {
    const UeId u{static_cast<std::uint32_t>(ui)};
    const auto bs = allocation_.bs_of(u);
    if (!bs || *bs != i) continue;
    live_profit_ -= scenario_->pair_profit(u, i);
    allocation_.assign_cloud(u);
    mark_cloud(u, true);
    orphans.push_back(u);
    ++evicted;
  }
  const std::vector<std::uint32_t> zero_crus(scenario_->num_services(), 0);
  state_.clamp_remaining(i, zero_crus, 0);
  if (!clamped_[i.idx()]) {
    clamped_[i.idx()] = true;
    ++clamped_bss_;
  }
  // The crash is the canonical flight-recorder trigger: freeze the ring
  // here, where the lifecycle op happens, so every caller (sim/churn's
  // replay included) gets the post-mortem without its own hook.
  if (obs::FlightRecorder* const fr = obs::flight(); fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kFault;
    e.label = "bs-crash";
    e.bs = i.value;
    e.value = evicted;
    fr->record(e);
    fr->trigger("bs-crash", fr->round(), i.value);
  }
  return evicted;
}

void IncrementalAllocator::recover_bs(BsId i) {
  state_.recount_remaining(i, allocation_);
  if (clamped_[i.idx()]) {
    clamped_[i.idx()] = false;
    --clamped_bss_;
  }
  if (obs::FlightRecorder* const fr = obs::flight(); fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kRepair;
    e.label = "bs-recover";
    e.bs = i.value;
    fr->record(e);
  }
}

void IncrementalAllocator::degrade_bs(BsId i, double cru_factor, double rrb_factor) {
  DMRA_REQUIRE(cru_factor >= 0.0 && cru_factor <= 1.0);
  DMRA_REQUIRE(rrb_factor >= 0.0 && rrb_factor <= 1.0);
  const std::size_t ns = scenario_->num_services();
  std::vector<std::uint32_t> caps(ns);
  for (std::size_t j = 0; j < ns; ++j) {
    const auto rem = state_.remaining_crus(i, ServiceId{static_cast<std::uint32_t>(j)});
    caps[j] = static_cast<std::uint32_t>(static_cast<double>(rem) * cru_factor);
  }
  const auto rrb_cap = static_cast<std::uint32_t>(
      static_cast<double>(state_.remaining_rrbs(i)) * rrb_factor);
  state_.clamp_remaining(i, caps, rrb_cap);
  if (!clamped_[i.idx()]) {
    clamped_[i.idx()] = true;
    ++clamped_bss_;
  }
  if (obs::FlightRecorder* const fr = obs::flight(); fr != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kFault;
    e.label = "bs-degrade";
    e.bs = i.value;
    fr->record(e);
  }
}

void IncrementalAllocator::audit_round(std::size_t round) const {
  if (!DMRA_AUDIT_ACTIVE()) return;
  if (!capacity_nominal()) return;  // clamped ledger ≠ recount, by design
  audit::report_state_round("core/incremental", round, *scenario_, allocation_, state_);
}

}  // namespace dmra
