#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "registry/delay.hpp"
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

TEST(Network, FindEdge) {
  Simulator sim;
  Network net(sim);
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(nullptr);
  const NetNodeId c = net.add_node(nullptr);
  const EdgeId ab = net.add_edge(a, b, 1.0);
  EdgeId found = 0;
  EXPECT_TRUE(net.find_edge(a, b, found));
  EXPECT_EQ(found, ab);
  EXPECT_FALSE(net.find_edge(a, c, found));
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
  net.set_edge_delay(e, 4.0);
  EXPECT_DOUBLE_EQ(net.edge_delay(e), 4.0);
  EXPECT_EQ(net.out_edges(a).size(), 1u);
  EXPECT_EQ(net.in_edges(b).size(), 1u);
}

TEST(Network, DelayModulationApplies) {
  Simulator sim;
  Network net(sim);
  RecordingSink sink;
  const NetNodeId a = net.add_node(nullptr);
  const NetNodeId b = net.add_node(&sink);
  const EdgeId e = net.add_edge(a, b, 10.0);
  net.set_delay_modulation([](EdgeId, SimTime t) { return t >= 50.0 ? 5.0 : 0.0; });
  SendAt sender(net);
  sender.send(sim, 0.0, e, 1);
  sender.send(sim, 100.0, e, 2);
  sim.run_all();
  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.received[0].at, 10.0);
  EXPECT_DOUBLE_EQ(sink.received[1].at, 115.0);
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
