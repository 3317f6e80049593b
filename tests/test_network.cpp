#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <numbers>
#include <ostream>
#include <vector>

#include "registry/delay.hpp"
#include "runner/shard_driver.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {
namespace {

/// Schedules network sends at given times through the typed event API
/// (payload: a=broadcast source, b=edge, i=stamp).
struct SendAt final : TimerTarget {
  enum Kind : std::uint32_t { kSend = 1, kBroadcast = 2 };
  Network* net = nullptr;

  explicit SendAt(Network& n) : net(&n) {}

  void send(Simulator& sim, SimTime t, EdgeId e, std::int64_t stamp) {
    sim.at(t, this, kSend, EventPayload{.b = e, .i = stamp});
  }
  void broadcast(Simulator& sim, SimTime t, NetNodeId from, std::int64_t stamp) {
    sim.at(t, this, kBroadcast, EventPayload{.a = from, .i = stamp});
  }

  void on_timer(const Event& event) override {
    if (event.kind == kBroadcast) {
      net->broadcast(event.payload.a, Pulse{event.payload.i});
    } else {
      net->send(event.payload.b, Pulse{event.payload.i});
    }
  }
};

struct RecordingSink : PulseSink {
  struct Item {
    NetNodeId from;
    EdgeId edge;
    std::int64_t stamp;
    SimTime at;

    bool operator==(const Item&) const = default;
    friend void PrintTo(const Item& item, std::ostream* os) {
      *os << "{from " << item.from << ", edge " << item.edge << ", stamp " << item.stamp
          << ", at " << item.at << "}";
    }
  };
  std::vector<Item> received;

  void on_pulse(NetNodeId from, EdgeId edge, const Pulse& pulse, SimTime now) override {
    received.push_back({from, edge, pulse.stamp, now});
  }
};

TEST(Network, DeliversAfterEdgeDelay) {
  Simulator sim;
  Network net(sim);
  RecordingSink sink;
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(&sink);
  const EdgeId e = net.add_edge(a, b, 12.5);
  SendAt sender(net);
  sender.send(sim, 100.0, e, 7);
  sim.run_all();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, 112.5);
  EXPECT_EQ(sink.received[0].stamp, 7);
  EXPECT_EQ(sink.received[0].from, a);
  EXPECT_EQ(sink.received[0].edge, e);
}

TEST(Network, BroadcastReachesAllOutEdges) {
  Simulator sim;
  Network net(sim);
  RecordingSink s1, s2, s3;
  const NetNodeId src = net.add_node(nullptr);
  const NetNodeId n1 = net.add_node(&s1);
  const NetNodeId n2 = net.add_node(&s2);
  const NetNodeId n3 = net.add_node(&s3);
  net.add_edge(src, n1, 1.0);
  net.add_edge(src, n2, 2.0);
  net.add_edge(src, n3, 3.0);
  SendAt sender(net);
  sender.broadcast(sim, 0.0, src, 1);
  sim.run_all();
  EXPECT_EQ(s1.received.size(), 1u);
  EXPECT_EQ(s2.received.size(), 1u);
  EXPECT_EQ(s3.received.size(), 1u);
  EXPECT_DOUBLE_EQ(s3.received[0].at, 3.0);
}

TEST(Network, NullSinkDropsSilently) {
  Simulator sim;
  Network net(sim);
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(nullptr);
  const EdgeId e = net.add_edge(a, b, 1.0);
  SendAt sender(net);
  sender.send(sim, 0.0, e, 1);
  sim.run_all();
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(Network, SetSinkRewires) {
  Simulator sim;
  Network net(sim);
  RecordingSink sink;
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(nullptr);
  const EdgeId e = net.add_edge(a, b, 1.0);
  net.set_sink(b, &sink);
  SendAt sender(net);
  sender.send(sim, 0.0, e, 2);
  sim.run_all();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST(Network, EdgeAccessors) {
  Simulator sim;
  Network net(sim);
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(nullptr);
  const EdgeId e = net.add_edge(a, b, 9.0);
  EXPECT_EQ(net.edge_from(e), a);
  EXPECT_EQ(net.edge_to(e), b);
  EXPECT_DOUBLE_EQ(net.edge_delay(e), 9.0);
  EXPECT_EQ(net.out_edges(a).size(), 1u);
  EXPECT_TRUE(net.out_edges(b).empty());
}

TEST(Network, DelayDriftApplies) {
  // A = 4, period 200: a send on edge e at time t takes the static delay
  // plus 2 sin(2 pi t / 200 + 0.7 e).
  const DelayDrift drift{.amplitude = 4.0, .period = 200.0};
  const auto drifted = [&](double delay, SimTime t, EdgeId e) {
    return t + delay + 0.5 * drift.amplitude *
                           std::sin(2.0 * std::numbers::pi * t / drift.period + 0.7 * e);
  };
  Simulator sim;
  Network net(sim, drift);
  RecordingSink sink, s1, s2, s3;
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(&sink);
  const EdgeId e = net.add_edge(a, b, 10.0);
  const NetNodeId src = net.add_node(nullptr);
  const EdgeId first = net.add_edge(src, net.add_node(&s1), 20.0);
  net.add_edge(src, net.add_node(&s2), 20.0);
  net.add_edge(src, net.add_node(&s3), 20.0);
  SendAt sender(net);
  sender.send(sim, 30.0, e, 1);   // sin(0.3 pi) > 0: later than static
  sender.send(sim, 110.0, e, 2);  // sin(1.1 pi) < 0: earlier than static
  sender.broadcast(sim, 50.0, src, 3);
  sim.run_all();
  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, drifted(10.0, 30.0, e));
  EXPECT_DOUBLE_EQ(sink.received[1].at, drifted(10.0, 110.0, e));
  EXPECT_GT(sink.received[0].at, 40.0);
  EXPECT_LT(sink.received[1].at, 120.0);
  // Equal static delays, yet each edge drifts on its own: the broadcast
  // takes the per-edge path, one delivery event per out-edge.
  ASSERT_EQ(s3.received.size(), 1u);
  EXPECT_DOUBLE_EQ(s1.received.at(0).at, drifted(20.0, 50.0, first));
  EXPECT_DOUBLE_EQ(s3.received[0].at, drifted(20.0, 50.0, first + 2));
  EXPECT_EQ(net.delivery_events(), 2u + 3u);
}

TEST(Network, SendAfterDefersTheSend) {
  Simulator sim;
  Network net(sim);
  RecordingSink sink;
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(&sink);
  const EdgeId e = net.add_edge(a, b, 10.0);
  net.send_after(e, Pulse{4}, 5.0);  // send at t=5, delivery at t=15
  sim.run_all();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, 15.0);
  EXPECT_EQ(sink.received[0].stamp, 4);
  EXPECT_THROW(net.send_after(e, Pulse{5}, -1.0), std::logic_error);
}

TEST(Network, InjectDeliversAtAbsoluteTime) {
  Simulator sim;
  Network net(sim);
  RecordingSink sink;
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(&sink);
  net.inject(a, b, Pulse{3}, 42.0);
  sim.run_all();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, 42.0);
}

/// What one run of the shard-count cases below observed.
struct CaseRun {
  std::vector<std::vector<RecordingSink::Item>> received;  ///< per node
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  /// executed - delivery_events + delivered: the split of a batched
  /// broadcast into local and cross-shard deliveries depends on the cut,
  /// the logical event count does not.
  std::uint64_t logical_events = 0;
};

/// Four nodes, cut {0, 0, 1, 1} when run on two shards. Node 0's out-edges
/// share one delay (batched broadcast reaching both shards), node 1's do
/// not (per-edge broadcast). Every case of the merged send path runs once:
/// a per-edge send, a send_after, both broadcast branches and an inject
/// landing at the same instant as a batched arrival.
CaseRun run_send_cases(std::uint32_t shards) {
  const std::vector<std::uint32_t> cut = {0, 0, 1, 1};
  std::deque<Simulator> sims(shards);
  Network net(sims[0]);
  std::vector<RecordingSink> sinks(cut.size());
  for (RecordingSink& sink : sinks) net.add_node(&sink);
  net.add_edge(0, 1, 3.0);
  net.add_edge(0, 2, 3.0);
  net.add_edge(0, 3, 3.0);
  const EdgeId e12 = net.add_edge(1, 2, 2.0);
  net.add_edge(1, 0, 5.0);
  net.add_edge(2, 3, 1.5);
  const EdgeId e30 = net.add_edge(3, 0, 2.5);
  std::vector<Simulator*> shard_sims;
  for (Simulator& sim : sims) shard_sims.push_back(&sim);
  std::vector<std::uint32_t> node_shard(cut.size(), 0);
  if (shards > 1) node_shard = cut;
  net.configure_shards(shard_sims, node_shard);
  const auto sim_of = [&](NetNodeId n) -> Simulator& { return sims[node_shard[n]]; };

  SendAt sender(net);
  sender.send(sim_of(3), 10.0, e30, 1);     // per-edge, crosses 1 -> 0
  net.send_after(e12, Pulse{2}, 4.0);       // sent at 4, crosses 0 -> 1
  sender.broadcast(sim_of(0), 20.0, 0, 3);  // uniform delay: batched
  sender.broadcast(sim_of(1), 30.0, 1, 4);  // mixed delays: per edge
  net.inject(3, 1, Pulse{5}, 23.0);         // ties the batched arrival at 1

  ShardDriver(shard_sims, net, nullptr).run(kTimeInfinity);

  CaseRun run;
  for (const RecordingSink& sink : sinks) run.received.push_back(sink.received);
  run.sent = net.messages_sent();
  run.delivered = net.messages_delivered();
  for (const Simulator& sim : sims) run.logical_events += sim.executed_events();
  run.logical_events = run.logical_events - net.delivery_events() + run.delivered;
  return run;
}

TEST(Network, SendPathsAgreeAtOneAndTwoShards) {
  const CaseRun one = run_send_cases(1);
  const CaseRun two = run_send_cases(2);
  // 1 send + 1 deferred send + 3 + 2 broadcast edges + 1 inject.
  EXPECT_EQ(one.sent, 8u);
  EXPECT_EQ(one.delivered, 8u);
  const auto arrivals = [](const std::vector<RecordingSink::Item>& items) {
    std::vector<SimTime> at;
    for (const RecordingSink::Item& item : items) at.push_back(item.at);
    return at;
  };
  EXPECT_EQ(arrivals(one.received[0]), (std::vector<SimTime>{12.5, 35.0}));
  ASSERT_EQ(arrivals(one.received[1]), (std::vector<SimTime>{23.0, 23.0}));
  EXPECT_EQ(arrivals(one.received[2]), (std::vector<SimTime>{6.0, 23.0, 32.0}));
  EXPECT_EQ(arrivals(one.received[3]), (std::vector<SimTime>{23.0}));
  // The tied arrivals at node 1 are flushed in (sender, edge) order.
  EXPECT_EQ(one.received[1][0].from, 0u);
  EXPECT_EQ(one.received[1][1].from, 3u);

  for (NetNodeId n = 0; n < one.received.size(); ++n) {
    EXPECT_EQ(two.received[n], one.received[n]) << "sink calls of node " << n;
  }
  EXPECT_EQ(two.sent, one.sent);
  EXPECT_EQ(two.delivered, one.delivered);
  EXPECT_EQ(two.logical_events, one.logical_events);
}

TEST(Network, NonPositiveDelayRejected) {
  Simulator sim;
  Network net(sim);
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(nullptr);
  EXPECT_THROW(net.add_edge(a, b, 0.0), std::logic_error);
  EXPECT_THROW(net.add_edge(a, b, -1.0), std::logic_error);
}

double sample_delay(const ComponentSpec& spec, std::uint32_t from_col, std::uint32_t to_col,
                    Rng& rng) {
  DelayContext ctx;
  ctx.from_column = from_col;
  ctx.to_column = to_col;
  ctx.d = 100.0;
  ctx.u = 10.0;
  return delay_registry().create(spec)->sample(ctx, rng);
}

ComponentSpec column_split(std::uint32_t split) {
  ComponentSpec spec = ComponentSpec::of("column-split");
  spec.params.set("split_column", split);
  return spec;
}

TEST(DelayModelTest, UniformStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double delay = sample_delay(ComponentSpec::of("uniform-random"), 0, 1, rng);
    EXPECT_GE(delay, 90.0);
    EXPECT_LE(delay, 100.0);
  }
}

TEST(DelayModelTest, ExtremesAndSplit) {
  Rng rng(6);
  EXPECT_DOUBLE_EQ(sample_delay(ComponentSpec::of("all-max"), 3, 4, rng), 100.0);
  EXPECT_DOUBLE_EQ(sample_delay(ComponentSpec::of("all-min"), 3, 4, rng), 90.0);
  // from column < split 4: fast.
  EXPECT_DOUBLE_EQ(sample_delay(column_split(4), 3, 4, rng), 90.0);
  EXPECT_DOUBLE_EQ(sample_delay(column_split(4), 4, 5, rng), 100.0);
  EXPECT_DOUBLE_EQ(sample_delay(ComponentSpec::of("alternating"), 0, 2, rng), 100.0);
  EXPECT_DOUBLE_EQ(sample_delay(ComponentSpec::of("alternating"), 0, 3, rng), 90.0);
}

}  // namespace
}  // namespace gtrix
