// MessageBus::multicast must be indistinguishable, to every recipient and
// to the bus statistics, from sending one unicast per audience member in
// audience order: same seq numbers, same per-recipient order, same fault
// draws (drop → duplicate → delay per copy), same counters.
#include "net/bus.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace dmra {
namespace {

using IntBus = MessageBus<std::uint64_t>;
using Delivered = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t,
                             std::uint64_t>;  // from, to, seq, sent_round, payload

void drain(IntBus& bus, AgentId agent, std::vector<Delivered>& out) {
  for (const auto& env : bus.take_inbox(agent)) {
    EXPECT_EQ(env.to, agent);
    out.emplace_back(env.from.value, env.to.value, env.seq, env.sent_round, env.payload);
  }
}

void expect_same_stats(const BusStats& a, const BusStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.messages_delayed, b.messages_delayed);
}

// Random schedules of unicasts and multicasts (empty audiences and
// repeated recipients included) over random agent counts, with a random
// link-fault model armed on most seeds and inboxes left undrained at
// random for one or more deliveries. The multicasting bus and the
// unicast-only bus must agree on every delivered envelope and counter.
TEST(Multicast, MatchesUnicastFanOutUnderFaults) {
  std::uint64_t duplicated = 0, delayed = 0, dropped = 0, carried = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng("multicast-schedule", seed);
    const std::size_t na = 1 + rng.index(10);
    IntBus multi;
    IntBus uni;
    std::vector<AgentId> agents;
    for (std::size_t a = 0; a < na; ++a) {
      agents.push_back(multi.register_agent());
      ASSERT_EQ(uni.register_agent(), agents.back());
    }
    if (seed % 4 != 0) {
      LinkFaults faults;
      faults.drop_probability = rng.bernoulli(0.7) ? 0.2 : 0.0;
      faults.duplicate_probability = rng.bernoulli(0.7) ? 0.25 : 0.0;
      faults.delay_probability = rng.bernoulli(0.7) ? 0.3 : 0.0;
      faults.max_delay_rounds = 1 + rng.index(3);
      multi.set_faults(faults, seed);
      uni.set_faults(faults, seed);
    }

    std::vector<std::vector<Delivered>> got_multi(na), got_uni(na);
    std::uint64_t payload = 0;
    const std::size_t rounds = 3 + rng.index(8);
    for (std::size_t r = 0; r < rounds; ++r) {
      // Audiences must outlive the deliver() below; a vector of vectors
      // keeps each audience's buffer in place as the outer one grows.
      std::vector<std::vector<AgentId>> audiences;
      const std::size_t ops = rng.index(7);
      for (std::size_t op = 0; op < ops; ++op) {
        const AgentId from = agents[rng.index(na)];
        if (rng.bernoulli(0.4)) {
          const AgentId to = agents[rng.index(na)];
          multi.send(from, to, payload);
          uni.send(from, to, payload);
        } else {
          std::vector<AgentId>& audience = audiences.emplace_back();
          const std::size_t n = rng.index(9);  // 0 = an empty audience
          for (std::size_t k = 0; k < n; ++k) audience.push_back(agents[rng.index(na)]);
          multi.multicast(from, audience, payload);
          for (const AgentId to : audience) uni.send(from, to, payload);
        }
        ++payload;
      }
      ASSERT_EQ(multi.in_flight(), uni.in_flight());
      ASSERT_EQ(multi.deliver(), uni.deliver());
      for (std::size_t a = 0; a < na; ++a) {
        if (rng.bernoulli(0.3)) {
          if (!multi.inbox_empty(agents[a])) ++carried;
          ASSERT_EQ(multi.inbox_empty(agents[a]), uni.inbox_empty(agents[a]));
          continue;  // left undrained: carried into the next delivery
        }
        drain(multi, agents[a], got_multi[a]);
        drain(uni, agents[a], got_uni[a]);
      }
      expect_same_stats(multi.stats(), uni.stats());
    }
    std::size_t guard = 0;
    while (uni.in_flight() > 0 || multi.in_flight() > 0) {
      ASSERT_LT(++guard, 16u);
      ASSERT_EQ(multi.in_flight(), uni.in_flight());
      ASSERT_EQ(multi.deliver(), uni.deliver());
    }
    for (std::size_t a = 0; a < na; ++a) {
      drain(multi, agents[a], got_multi[a]);
      drain(uni, agents[a], got_uni[a]);
      EXPECT_EQ(got_multi[a], got_uni[a]) << "agent " << a;
    }
    expect_same_stats(multi.stats(), uni.stats());
    duplicated += multi.stats().messages_duplicated;
    delayed += multi.stats().messages_delayed;
    dropped += multi.stats().messages_dropped;
  }
  // The schedule really exercised every fault class and the carryover path.
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(delayed, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(carried, 0u);
}

TEST(Multicast, EmptyAudienceSendsNothingAndConsumesNoSeq) {
  IntBus bus;
  const AgentId a = bus.register_agent();
  const AgentId b = bus.register_agent();
  bus.multicast(a, {}, 1);
  EXPECT_EQ(bus.stats().messages_sent, 0u);
  EXPECT_EQ(bus.in_flight(), 0u);
  bus.send(a, b, 2);
  EXPECT_EQ(bus.deliver(), 1u);
  const auto inbox = bus.take_inbox(b);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].seq, 0u);
  EXPECT_EQ(inbox[0].payload, 2u);
}

TEST(Multicast, RepeatedRecipientGetsOneCopyPerListing) {
  IntBus bus;
  const AgentId a = bus.register_agent();
  const AgentId b = bus.register_agent();
  const AgentId c = bus.register_agent();
  const std::vector<AgentId> audience{b, c, b};
  bus.multicast(a, audience, 9);
  EXPECT_EQ(bus.stats().messages_sent, 3u);
  EXPECT_EQ(bus.deliver(), 3u);
  const auto to_b = bus.take_inbox(b);
  ASSERT_EQ(to_b.size(), 2u);
  EXPECT_EQ(to_b[0].seq, 0u);
  EXPECT_EQ(to_b[1].seq, 2u);
  EXPECT_EQ(to_b[1].payload, 9u);
  const auto to_c = bus.take_inbox(c);
  ASSERT_EQ(to_c.size(), 1u);
  EXPECT_EQ(to_c.at(0).seq, 1u);
  EXPECT_EQ(to_c.at(0).from, a);
  EXPECT_EQ(to_c.at(0).to, c);
}

TEST(Multicast, UndrainedCopiesSurviveTwoDeliveries) {
  IntBus bus;
  const AgentId a = bus.register_agent();
  const AgentId b = bus.register_agent();
  const AgentId c = bus.register_agent();
  const std::vector<AgentId> audience{b, c};
  bus.multicast(a, audience, 5);
  bus.deliver();
  EXPECT_EQ(bus.take_inbox(c).size(), 1u);  // c drains, b does not
  bus.send(a, c, 6);                       // a fresh body in the next pool
  bus.deliver();
  EXPECT_EQ(bus.take_inbox(c).at(0).payload, 6u);
  bus.multicast(c, audience, 7);
  bus.deliver();
  const auto inbox = bus.take_inbox(b);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].payload, 5u);
  EXPECT_EQ(inbox[0].seq, 0u);
  EXPECT_EQ(inbox[0].sent_round, 0u);
  EXPECT_EQ(inbox[0].from, a);
  EXPECT_EQ(inbox[1].payload, 7u);
  EXPECT_EQ(inbox[1].seq, 3u);
  EXPECT_EQ(inbox[1].sent_round, 2u);
  EXPECT_EQ(inbox[1].from, c);
  EXPECT_EQ(bus.stats().messages_delivered, 5u);
}

TEST(Multicast, UnknownAgentIsContractViolation) {
  IntBus bus;
  const AgentId a = bus.register_agent();
  const std::vector<AgentId> bad{a, AgentId{3}};
  EXPECT_THROW(bus.multicast(a, bad, 1), ContractViolation);
  EXPECT_THROW(bus.multicast(AgentId{3}, std::vector<AgentId>{a}, 1), ContractViolation);
}

}  // namespace
}  // namespace dmra
