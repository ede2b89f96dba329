// In-process message bus for the decentralized runtime.
//
// The DMRA paper's algorithm is decentralized: UEs, SPs, and BSs exchange
// proposals, decisions, and resource broadcasts. This bus models that
// exchange explicitly — agents only communicate through typed envelopes,
// never by reading each other's state — while staying deterministic:
// messages sent during round r are delivered at the start of round r+1,
// ordered by (recipient, send sequence number).
//
// The bus is synchronous and single-threaded on purpose. What we need
// from "decentralized" is the information structure (who can know what,
// and when), not OS-level parallelism; a deterministic bus makes the
// equivalence proof against the direct solver an exact, testable claim.
//
// Storage model: a send or a multicast stores its body (sender, send
// round, base sequence number, payload) ONCE, in a pooled body buffer; a
// multicast to n agents is one body and n copies with the contiguous
// sequence numbers [base, base + n). deliver() drains the pending sends in
// one batch — fault draws first, per copy, then a per-recipient counting
// pass, then placement of small {body, copy} references into per-agent
// segments of one contiguous reference buffer — and swaps the buffers.
// The bodies of the fresh sends become the live body pool as they are;
// only the (few) bodies that undrained carryover references still point
// at, and parked duplicate/delayed copies coming due, are copied into it.
// After the first few rounds reach their high-water marks, the steady
// state performs zero heap allocations; reserve() warms every pool up
// front. take_inbox() hands out a non-owning InboxView whose elements
// present each reference as a whole envelope (from, to, sent_round, seq,
// payload), with the payload read in place from the body pool.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/fault_plan.hpp"
#include "net/stats.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dmra {

/// Opaque agent address on a bus.
struct AgentId {
  std::uint32_t value = 0;
  constexpr friend auto operator<=>(AgentId, AgentId) = default;
  constexpr std::size_t idx() const { return value; }
};

/// A whole message: what a parked (duplicated or delayed) copy holds.
template <typename Payload>
struct Envelope {
  AgentId from;
  AgentId to;
  std::uint64_t sent_round = 0;
  std::uint64_t seq = 0;  ///< global send order, for deterministic delivery
  Payload payload;
};

/// A delivered message as its recipient reads it: the envelope fields by
/// value and the payload by reference into the bus's body pool, so, like
/// the InboxView that produced it, valid until the next deliver().
template <typename Payload>
struct DeliveredEnvelope {
  AgentId from;
  AgentId to;
  std::uint64_t sent_round;
  std::uint64_t seq;
  const Payload& payload;
};

namespace bus_detail {

/// One stored send: the copies of a multicast share it.
template <typename Payload>
struct Body {
  AgentId from;
  AgentId to;  ///< recipient of a pending unicast; unused once delivered
  std::uint64_t sent_round = 0;
  std::uint64_t seq = 0;  ///< sequence number of copy 0
  Payload payload;
};

/// One delivered copy: body index into the live body pool, and the copy's
/// position in its send's audience (its seq is the body's seq + copy).
struct InboxRef {
  std::uint32_t body;
  std::uint32_t copy;
};

}  // namespace bus_detail

/// Non-owning window over one agent's drained inbox segment. Valid until
/// the next deliver() call on the bus that produced it (delivery swaps
/// the underlying pools); drain-and-dispatch immediately, don't store.
template <typename Payload>
class InboxView {
  using Body = bus_detail::Body<Payload>;
  using Ref = bus_detail::InboxRef;

 public:
  class iterator {
   public:
    iterator(const Ref* ref, const Body* bodies, AgentId to)
        : ref_(ref), bodies_(bodies), to_(to) {}

    DeliveredEnvelope<Payload> operator*() const {
      const Body& b = bodies_[ref_->body];
      return {b.from, to_, b.sent_round, b.seq + ref_->copy, b.payload};
    }
    iterator& operator++() {
      ++ref_;
      return *this;
    }
    bool operator==(const iterator& o) const { return ref_ == o.ref_; }

   private:
    const Ref* ref_;
    const Body* bodies_;
    AgentId to_;
  };

  InboxView() = default;
  InboxView(const Ref* refs, std::size_t size, const Body* bodies, AgentId to)
      : refs_(refs), size_(size), bodies_(bodies), to_(to) {}

  iterator begin() const { return iterator(refs_, bodies_, to_); }
  iterator end() const { return iterator(refs_ + size_, bodies_, to_); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  DeliveredEnvelope<Payload> operator[](std::size_t n) const {
    return *iterator(refs_ + n, bodies_, to_);
  }
  DeliveredEnvelope<Payload> at(std::size_t n) const {
    DMRA_REQUIRE(n < size_);
    return (*this)[n];
  }

 private:
  const Ref* refs_ = nullptr;
  std::size_t size_ = 0;
  const Body* bodies_ = nullptr;
  AgentId to_;
};

template <typename Payload>
class MessageBus {
 public:
  /// Register an agent; returns its address. All registration must happen
  /// before the first send — and before the first deliver(): a late
  /// registration would retroactively grow the per-agent segment tables a
  /// running delivery schedule already committed to, leaving earlier
  /// rounds and later rounds disagreeing about the agent population (the
  /// sharded runtime builds one bus per region on exactly this contract).
  AgentId register_agent() {
    DMRA_REQUIRE_MSG(seq_ == 0 && round_ == 0,
                     "register agents before any send or deliver()");
    const AgentId id{static_cast<std::uint32_t>(num_agents_)};
    ++num_agents_;
    seg_begin_.push_back(0);
    cursor_.push_back(0);
    seg_end_.push_back(0);
    write_pos_.push_back(0);
    return id;
  }

  std::size_t num_agents() const { return num_agents_; }

  /// Warm the pools to a per-deliver()-batch high-water mark so the
  /// steady state never allocates: `messages_per_deliver` delivered copies
  /// made by at most `sends_per_deliver` send()/multicast() calls. The reference pool is sized for two
  /// batches because an agent may leave one generation undrained while
  /// the next arrives (the runtime's UEs do exactly this with broadcasts
  /// and decisions); the body pools likewise hold one batch of fresh
  /// bodies plus the bodies undrained carryover still points at. Also the
  /// growth license for the pool push/resize calls in the hot regions
  /// below.
  ///
  /// Call AFTER arming faults (set_loss/set_faults): the fault pools are
  /// sized from the armed LinkFaults, not a guess. A duplicate copy parks
  /// in delayed_ for exactly one round, a delayed original for up to
  /// max_delay_rounds, so the worst-case parked population is one batch
  /// per armed duplicate class plus max_delay_rounds batches per armed
  /// delay class; the same parked messages can all come due alongside a
  /// fresh batch, which is the inbox headroom term. fates_ holds one fate
  /// per pending copy, warmed so the first faulted deliver() does not
  /// resize it mid-hotpath.
  void reserve(std::size_t messages_per_deliver, std::size_t sends_per_deliver) {
    const bool dup_armed = fault_rng_.has_value() && faults_.duplicate_probability > 0.0;
    const bool delay_armed = fault_rng_.has_value() && faults_.delay_probability > 0.0;
    std::size_t parked = 0;
    if (dup_armed) parked += messages_per_deliver;
    if (delay_armed)
      parked += messages_per_deliver * static_cast<std::size_t>(faults_.max_delay_rounds);
    multicasts_.reserve(sends_per_deliver);
    fates_.reserve(messages_per_deliver);
    pending_bodies_.reserve(2 * sends_per_deliver + parked);
    bodies_.reserve(2 * sends_per_deliver + parked);
    remap_.reserve(2 * sends_per_deliver + parked);
    inbox_data_.reserve(2 * messages_per_deliver + parked);
    inbox_next_.reserve(2 * messages_per_deliver + parked);
    delayed_.reserve(parked + 16);
  }

  /// Queue a message for delivery at the next deliver() call.
  void send(AgentId from, AgentId to, Payload payload) {
    // dmra::hotpath begin(bus-send)
    DMRA_REQUIRE(from.idx() < num_agents_);
    DMRA_REQUIRE(to.idx() < num_agents_);
    pending_bodies_.emplace_back(from, to, round_, seq_++, std::move(payload));
    ++pending_copies_;
    stats_.messages_sent++;
    // dmra::hotpath end(bus-send)
  }

  /// Queue one copy of `payload` for every agent of `audience`, in
  /// audience order: exactly what audience.size() send() calls would do
  /// (the copies take the contiguous seq range [seq, seq + n), each is
  /// counted as sent and delivered, and the fault pass draws for each
  /// copy in seq order), but the payload is stored once. An empty
  /// audience sends nothing and consumes no seq; an agent listed twice
  /// gets two copies. The audience is read at the next deliver(), so the
  /// span must stay valid (and unchanged) until then.
  void multicast(AgentId from, std::span<const AgentId> audience, Payload payload) {
    // dmra::hotpath begin(bus-multicast)
    DMRA_REQUIRE(from.idx() < num_agents_);
    DMRA_REQUIRE(audience.size() <= kMaxCopies);
    if (audience.empty()) return;
    for (const AgentId to : audience) DMRA_REQUIRE(to.idx() < num_agents_);
    const auto n = static_cast<std::uint32_t>(audience.size());
    multicasts_.push_back(Multicast{pending_bodies_.size(), audience.data(), n});
    pending_bodies_.push_back(Body{from, AgentId{}, round_, seq_, std::move(payload)});
    seq_ += n;
    pending_copies_ += n;
    stats_.messages_sent += n;
    // dmra::hotpath end(bus-multicast)
  }

  /// Make every delivery lossy: each pending message is dropped
  /// independently with probability `drop_probability` (deterministic per
  /// seed). Must be called before the first deliver() — retroactively
  /// changing the loss model mid-run would make the drop sequence depend
  /// on when the caller flipped it, not just on the seed — and at most
  /// once (re-seeding would silently restart the drop stream).
  void set_loss(double drop_probability, std::uint64_t seed) {
    DMRA_REQUIRE(drop_probability >= 0.0 && drop_probability < 1.0);
    DMRA_REQUIRE_MSG(round_ == 0, "set_loss must be called before the first deliver()");
    DMRA_REQUIRE_MSG(!loss_rng_.has_value(), "set_loss may only be called once per bus");
    drop_probability_ = drop_probability;
    loss_rng_.emplace("bus-loss", seed);
  }

  /// Arm the full link-fault model (loss + duplication + bounded delay).
  /// Same contract as set_loss: before the first deliver(), at most once,
  /// and mutually exclusive with set_loss. Drop draws come from the same
  /// "bus-loss" child stream set_loss uses, so a faults value with only
  /// drop_probability armed reproduces set_loss bit-for-bit per seed;
  /// duplicate/delay draws use a separate "bus-faults" stream so arming
  /// them never perturbs the drop sequence of surviving messages.
  void set_faults(const LinkFaults& faults, std::uint64_t seed) {
    DMRA_REQUIRE(faults.drop_probability >= 0.0 && faults.drop_probability < 1.0);
    DMRA_REQUIRE(faults.duplicate_probability >= 0.0 && faults.duplicate_probability < 1.0);
    DMRA_REQUIRE(faults.delay_probability >= 0.0 && faults.delay_probability < 1.0);
    DMRA_REQUIRE_MSG(round_ == 0, "set_faults must be called before the first deliver()");
    DMRA_REQUIRE_MSG(!loss_rng_.has_value(),
                     "set_faults may only be called once per bus (and not after set_loss)");
    if (faults.delay_probability > 0.0)
      DMRA_REQUIRE_MSG(faults.max_delay_rounds >= 1,
                       "delay faults need max_delay_rounds >= 1");
    faults_ = faults;
    drop_probability_ = faults.drop_probability;
    loss_rng_.emplace("bus-loss", seed);
    if (faults.duplicate_probability > 0.0 || faults.delay_probability > 0.0)
      fault_rng_.emplace("bus-faults", seed);
  }

  /// Move pending messages into recipient inbox segments and advance the
  /// round. Returns the number delivered (dropped messages are counted in
  /// stats().messages_dropped instead). Per fresh copy the draw order is
  /// fixed — drop, then duplicate, then delay — so each fault class
  /// consumes its stream identically whether or not the others fire.
  /// Delayed messages (and duplicate copies) come due at a later deliver()
  /// call and are then delivered unconditionally, before that round's
  /// fresh messages, in send-sequence order.
  ///
  /// Batch mechanics: one fault pass over the pending copies fixes each
  /// copy's fate and consumes the RNG streams in seq order (parked copies
  /// are materialised as whole envelopes); a counting pass sizes per-agent
  /// segments [undrained carryover | due delayed | surviving fresh];
  /// placement writes {body, copy} references at per-agent cursors into
  /// the spare reference pool; the pools swap. Per-agent order is exactly
  /// the append order of the historical per-agent vectors.
  std::size_t deliver() {
    // dmra::hotpath begin(bus-deliver)
    const std::size_t na = num_agents_;
    const std::size_t fresh = pending_bodies_.size();
    // Phase 1a: per-recipient counts, seeded with undrained carryover.
    std::size_t carried = 0;
    for (std::size_t a = 0; a < na; ++a) {
      write_pos_[a] = seg_end_[a] - cursor_[a];
      carried += write_pos_[a];
    }
    std::size_t due_count = 0;
    for (const Delayed& d : delayed_) {
      if (d.due <= round_) {
        ++write_pos_[d.env.to.idx()];
        ++due_count;
      }
    }
    // Phase 1b: fault draws in seq order, one draw sequence per copy
    // (drop, then duplicate, then delay), recording each fate. Duplicate
    // copies and delayed originals park in delayed_; they are not due
    // this round (due >= round_ + 1), so the counting above is complete.
    std::size_t fresh_kept = 0;
    const bool faulty = loss_rng_.has_value();
    if (faulty) {
      fates_.resize(pending_copies_);
      std::size_t m = 0;
      for_each_pending_copy(fresh, [&](std::size_t s, std::uint32_t k, AgentId to) {
        const std::size_t copy = m++;
        if (drop_probability_ > 0.0 && loss_rng_->bernoulli(drop_probability_)) {
          stats_.messages_dropped++;
          fates_[copy] = kDropped;
          return;
        }
        if (fault_rng_.has_value()) {
          if (faults_.duplicate_probability > 0.0 &&
              fault_rng_->bernoulli(faults_.duplicate_probability)) {
            stats_.messages_duplicated++;
            park(round_ + 1, s, k, to);  // copy arrives next round
          }
          if (faults_.delay_probability > 0.0 &&
              fault_rng_->bernoulli(faults_.delay_probability)) {
            stats_.messages_delayed++;
            const auto d = static_cast<std::uint64_t>(fault_rng_->uniform_int(
                1, static_cast<std::int64_t>(faults_.max_delay_rounds)));
            park(round_ + d, s, k, to);
            fates_[copy] = kDelayedFate;
            return;
          }
        }
        fates_[copy] = kFresh;
        ++write_pos_[to.idx()];
        ++fresh_kept;
      });
    } else {
      for_each_pending_copy(
          fresh, [&](std::size_t, std::uint32_t, AgentId to) { ++write_pos_[to.idx()]; });
      fresh_kept = pending_copies_;
    }
    // The fresh bodies sit at [0, fresh) of pending_bodies_, and carryover
    // and due-delayed bodies are appended after them: every index must
    // fit a reference.
    DMRA_REQUIRE_MSG(fresh + carried + due_count <= kMaxCopies,
                     "more message bodies in one delivery than a reference can index");
    // Phase 2: prefix-sum the counts into segment offsets and size the
    // spare pool (grow-only; stale tail entries are never readable).
    std::size_t total = 0;
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t count = write_pos_[a];
      seg_begin_[a] = total;
      write_pos_[a] = total;  // becomes the placement cursor
      total += count;
    }
    if (inbox_next_.size() < total) inbox_next_.resize(total);
    // Phase 3a: undrained carryover, preserving per-agent order. Each old
    // body still referenced is copied into the new pool once, however
    // many references share it (remap_ is old index -> new index).
    if (carried > 0) {
      if (remap_.size() < bodies_.size()) remap_.resize(bodies_.size());
      std::fill_n(remap_.begin(), bodies_.size(), kUnmapped);
      for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t k = cursor_[a]; k < seg_end_[a]; ++k) {
          const Ref r = inbox_data_[k];
          std::uint32_t& moved = remap_[r.body];
          if (moved == kUnmapped) {
            moved = static_cast<std::uint32_t>(pending_bodies_.size());
            pending_bodies_.push_back(bodies_[r.body]);
          }
          inbox_next_[write_pos_[a]++] = Ref{moved, r.copy};
        }
      }
    }
    // Phase 3b: due delayed messages in storage order, compacting the
    // survivors in place (entries appended by phase 1b sit at the tail
    // with due > round_, so they are all kept, in order).
    std::size_t kept = 0;
    for (std::size_t k = 0; k < delayed_.size(); ++k) {
      Delayed& d = delayed_[k];
      if (d.due <= round_) {
        const auto body = static_cast<std::uint32_t>(pending_bodies_.size());
        pending_bodies_.push_back(
            Body{d.env.from, d.env.to, d.env.sent_round, d.env.seq, std::move(d.env.payload)});
        inbox_next_[write_pos_[d.env.to.idx()]++] = Ref{body, 0};
      } else {
        if (kept != k) delayed_[kept] = std::move(d);
        ++kept;
      }
    }
    delayed_.resize(kept);
    // Phase 3c: surviving fresh copies in seq order.
    std::size_t m = 0;
    for_each_pending_copy(fresh, [&](std::size_t s, std::uint32_t k, AgentId to) {
      if (faulty && fates_[m++] != kFresh) return;
      inbox_next_[write_pos_[to.idx()]++] = Ref{static_cast<std::uint32_t>(s), k};
    });
    inbox_data_.swap(inbox_next_);
    bodies_.swap(pending_bodies_);
    for (std::size_t a = 0; a < na; ++a) {
      cursor_[a] = seg_begin_[a];
      seg_end_[a] = write_pos_[a];
    }
    pending_bodies_.clear();
    multicasts_.clear();
    pending_copies_ = 0;
    ++round_;
    const std::size_t delivered = due_count + fresh_kept;
    stats_.rounds = round_;
    stats_.messages_delivered += delivered;
    return delivered;
    // dmra::hotpath end(bus-deliver)
  }

  /// Drain an agent's inbox (messages are in send order; the bus never
  /// reorders messages to the same recipient). Returns a non-owning view
  /// into the pooled segment — valid until the next deliver() — and
  /// marks the segment drained so the next deliver() reclaims it.
  InboxView<Payload> take_inbox(AgentId agent) {
    // dmra::hotpath begin(bus-take-inbox)
    DMRA_REQUIRE(agent.idx() < num_agents_);
    const std::size_t b = cursor_[agent.idx()];
    const std::size_t e = seg_end_[agent.idx()];
    cursor_[agent.idx()] = e;
    return InboxView<Payload>(inbox_data_.data() + b, e - b, bodies_.data(), agent);
    // dmra::hotpath end(bus-take-inbox)
  }

  bool inbox_empty(AgentId agent) const {
    return cursor_[agent.idx()] == seg_end_[agent.idx()];
  }

  std::uint64_t round() const { return round_; }
  const BusStats& stats() const { return stats_; }

  /// Messages accepted by the bus but not yet delivered or dropped:
  /// pending copies plus delay-faulted messages still in flight. The
  /// runtime's fault-mode termination check uses this to avoid declaring
  /// convergence while a delayed proposal or decision is still coming.
  std::size_t in_flight() const { return pending_copies_ + delayed_.size(); }

 private:
  using Body = bus_detail::Body<Payload>;
  using Ref = bus_detail::InboxRef;

  /// The audience of one pending multicast body.
  struct Multicast {
    std::size_t body;  ///< index into pending_bodies_
    const AgentId* audience;
    std::uint32_t n;
  };

  /// Calls f(body, copy, recipient) for every copy of the `fresh` pending
  /// bodies, in seq order: one copy per unicast body, one per audience
  /// member of a multicast.
  template <typename F>
  void for_each_pending_copy(std::size_t fresh, F&& f) const {
    std::size_t mc = 0;
    std::size_t next_multicast = multicasts_.empty() ? fresh : multicasts_[0].body;
    for (std::size_t s = 0; s < fresh; ++s) {
      if (s != next_multicast) {
        f(s, std::uint32_t{0}, pending_bodies_[s].to);
        continue;
      }
      const Multicast& mcast = multicasts_[mc];
      for (std::uint32_t k = 0; k < mcast.n; ++k) f(s, k, mcast.audience[k]);
      next_multicast = ++mc < multicasts_.size() ? multicasts_[mc].body : fresh;
    }
  }

  /// A message held back by a delay fault (or a duplicate copy), due for
  /// unconditional delivery at the deliver() call entered with round_ ==
  /// `due`.
  struct Delayed {
    std::uint64_t due = 0;
    Envelope<Payload> env;
  };

  /// Park copy k of pending send s, materialised as a whole envelope.
  void park(std::uint64_t due, std::size_t s, std::uint32_t k, AgentId to) {
    const Body& b = pending_bodies_[s];
    delayed_.push_back(Delayed{due, Envelope<Payload>{b.from, to, b.sent_round, b.seq + k,
                                                      b.payload}});
  }

  static constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMaxCopies = kUnmapped;

  /// Per-copy outcome of the phase-1b fault pass.
  static constexpr std::uint8_t kFresh = 0;
  static constexpr std::uint8_t kDropped = 1;
  static constexpr std::uint8_t kDelayedFate = 2;

  std::size_t num_agents_ = 0;
  // Double-buffered reference pool: inbox_data_ holds the live per-agent
  // segments [seg_begin_, seg_end_) with cursor_ marking the drained
  // prefix; inbox_next_ is the spare the next deliver() packs into.
  std::vector<Ref> inbox_data_;
  std::vector<Ref> inbox_next_;
  std::vector<std::size_t> seg_begin_;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> seg_end_;
  std::vector<std::size_t> write_pos_;  ///< counts, then placement cursors
  // Body pools: bodies_ backs the live references; pending_bodies_ takes
  // the sends of the current round, in seq order, and becomes the live
  // pool at the next deliver().
  std::vector<Body> bodies_;
  std::vector<Body> pending_bodies_;
  std::vector<Multicast> multicasts_;  ///< ascending body index
  std::vector<std::uint32_t> remap_;  ///< phase-3a scratch, old body -> new body
  std::size_t pending_copies_ = 0;
  std::vector<std::uint8_t> fates_;
  std::vector<Delayed> delayed_;
  std::uint64_t round_ = 0;
  std::uint64_t seq_ = 0;
  BusStats stats_;
  double drop_probability_ = 0.0;
  LinkFaults faults_;
  std::optional<Rng> loss_rng_;
  std::optional<Rng> fault_rng_;
};

}  // namespace dmra
