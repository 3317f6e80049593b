// Node-level unit tests: a single GradientTrixNode driven by hand-crafted
// message schedules through a real (tiny) network. These pin down the
// pseudocode semantics directly -- until-loop exit times, branch selection,
// correction values, absorption of late current-wave messages, the
// watchdog, and duplicate handling -- independent of the full grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/gradient_node.hpp"
#include "core/node_state.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {
namespace {

/// One node under test with three predecessors (own + two neighbours),
/// rate-1 clock with zero offset (local time == real time), so expected
/// pulse times can be computed by hand.
struct NodeHarness {
  Simulator sim;
  Network net{sim};
  Recorder recorder;
  GradientSoa soa;  // the node's hot-state lanes; outlives the node
  NetNodeId own_pred, nbr_a, nbr_b, self;
  std::vector<NetNodeId> preds;  // the node views this list; outlives it
  std::optional<GradientTrixNode> node;
  Params params = Params::with(1000.0, 10.0, 1.0005);

  explicit NodeHarness(GradientNodeConfig config = {}, double broadcast_offset = 0.0) {
    own_pred = net.add_node(nullptr);
    nbr_a = net.add_node(nullptr);
    nbr_b = net.add_node(nullptr);
    self = net.add_node(nullptr);
    recorder.register_node(self, {});
    config.params = params;
    if (config.skew_bound_hint == 0.0) config.skew_bound_hint = params.thm11_bound(15);
    preds = {own_pred, nbr_a, nbr_b};
    node.emplace(sim, net, self, HardwareClock(1.0, 0.0), preds, config, broadcast_offset,
                 &recorder, soa);
    net.set_sink(self, &*node);
  }

  /// Delivers a pulse from `from` arriving exactly at absolute time `t`.
  void arrive(NetNodeId from, double t, Sigma stamp = 1) {
    net.inject(from, self, Pulse{stamp}, t);
  }

  /// Runs to completion and returns the node's recorded pulse times.
  const std::vector<IterationRecord>& run() {
    sim.run_all();
    return recorder.iterations(self);
  }

  double kappa() const { return params.kappa(); }
  double lambda_minus_d() const { return params.lambda - params.d; }
};

TEST(NodeUnit, BalancedArrivalsPulseAtOwnPlusLambdaMinusD) {
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_FALSE(its[0].timeout_branch);
  EXPECT_FALSE(its[0].late);
  // Delta = min_s max(own-max+4sk, own-min-4sk) - k/2 = max(-2, 2) - k/2 < 0
  // -> C = min(own - min + 3k/2, 0) = min(2 + 31.5, 0) = 0.
  EXPECT_DOUBLE_EQ(its[0].correction, 0.0);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1002.0 + h.lambda_minus_d());
}

TEST(NodeUnit, UntilWaitsSymmetricWindowForLastNeighbour) {
  // Neighbour A early, own next; neighbour B arrives before the until
  // deadline 2 H_own - H_min + 2k and is included in the correction.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1010.0);
  // Deadline: 2*1010 - 1000 + 2k = 1020 + 2k. Arrive before it:
  h.arrive(h.nbr_b, 1015.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_FALSE(its[0].max_missing);
  EXPECT_DOUBLE_EQ(its[0].h_max, 1015.0);
  (void)k;
}

TEST(NodeUnit, MissingLastNeighbourCollapsesToNegativeBranch) {
  // Neighbour B never arrives: at the deadline the H_own - H_max term is
  // -infinity and C = min(H_own - H_min + 3k/2, 0) (Lemma B.2's reading).
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1010.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_TRUE(its[0].max_missing);
  EXPECT_FALSE(its[0].timeout_branch);
  // own - min + 3k/2 = 10 + 31.5 > 0 -> C = 0; pulse at own + (Lambda - d).
  EXPECT_DOUBLE_EQ(its[0].correction, 0.0);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1010.0 + h.lambda_minus_d());
}

TEST(NodeUnit, MissingLastNeighbourWithVeryEarlyOwnTiesToMin) {
  // Own far earlier than the only neighbour: C = own - min + 3k/2 < 0,
  // i.e. the node waits and effectively pulses off H_min - 3k/2.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.own_pred, 1000.0);
  h.arrive(h.nbr_a, 1000.0 + 5.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_TRUE(its[0].max_missing);
  EXPECT_DOUBLE_EQ(its[0].correction, -5.0 * k + 1.5 * k);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1000.0 + 5.0 * k - 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, MissingOwnTakesTimeoutBranch) {
  // Own copy silent: until expires at H_max + k/2 + theta k; pulse at
  // H_max + 3k/2 + Lambda - d (Algorithm 3 first branch).
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_b, 1006.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_TRUE(its[0].timeout_branch);
  EXPECT_TRUE(its[0].own_missing);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1006.0 + 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, LateOwnMessageIsAbsorbedNotDeferred) {
  // Own arrives after the timeout branch committed but before the pulse:
  // it must be consumed by the current wave (Lemma B.1), not leak into the
  // next iteration.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0, 1);
  h.arrive(h.nbr_b, 1006.0, 1);
  // Timeout fires at 1006 + k/2 + theta*k ~= 1037.6; pulse at ~2037.5.
  h.arrive(h.own_pred, 1500.0, 1);  // late own, same wave
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);  // exactly one pulse; no second iteration began
  EXPECT_TRUE(its[0].timeout_branch);
  EXPECT_EQ(h.node->counters().late_absorbed, 1u);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1006.0 + 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, OwnLaterThanTimeoutWindowTreatedAsFaulty) {
  // An own copy arriving more than kappa/2 + theta kappa after the last
  // neighbour misses the until deadline: the node commits the timeout
  // branch (it cannot distinguish "very late" from "never"), exactly as
  // the paper's complete algorithm prescribes.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_b, 1001.0);
  h.arrive(h.own_pred, 1000.0 + 10.0 * k);  // way beyond the window
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_TRUE(its[0].timeout_branch);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1001.0 + 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, PositiveJumpNeedsWideNeighbourSpread) {
  // Delta > theta kappa with all messages on time requires the neighbours
  // to be far apart (own close to max, min far behind): here
  // A = own-max = k, B = own-min = 9k, Delta = 5k - k/2 > theta k, so the
  // jump-condition clamp yields C = max(A - 3k/2, theta k) = theta k.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_b, 1000.0 + 8.0 * k);
  h.arrive(h.own_pred, 1000.0 + 9.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_FALSE(its[0].timeout_branch);
  EXPECT_DOUBLE_EQ(its[0].correction, h.params.theta * k);
}

TEST(NodeUnit, NegativeJumpWhenOwnIsEarly) {
  // Own far ahead: C = own - min + 3k/2 < 0 -> wait.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.own_pred, 1000.0);
  h.arrive(h.nbr_a, 1000.0 + 8.0 * k);
  h.arrive(h.nbr_b, 1000.0 + 9.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].correction, -8.0 * k + 1.5 * k);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1000.0 + 8.0 * k - 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, DuplicateFromSamePredecessorDropped) {
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_a, 1001.0);  // duplicate in the same iteration
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1003.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].h_min, 1000.0);
  EXPECT_DOUBLE_EQ(its[0].h_max, 1003.0);
  EXPECT_EQ(h.node->counters().duplicate_drops, 1u);
}

TEST(NodeUnit, MessagesFromStrangersIgnored) {
  NodeHarness h;
  const NetNodeId stranger = h.net.add_node(nullptr);
  h.net.inject(stranger, h.self, Pulse{9}, 900.0);
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].h_min, 1000.0);
}

TEST(NodeUnit, SecondWaveQueuedDuringWaitStartsNextIteration) {
  NodeHarness h;
  // Wave 1 complete at ~1004; pulse at ~2002. Wave 2 arrivals land during
  // the wait (same slots again) and must be queued, then processed.
  h.arrive(h.nbr_a, 1000.0, 1);
  h.arrive(h.own_pred, 1002.0, 1);
  h.arrive(h.nbr_b, 1004.0, 1);
  h.arrive(h.nbr_a, 1950.0, 2);  // before pulse at ~2002: queued
  h.arrive(h.own_pred, 2990.0, 2);
  h.arrive(h.nbr_b, 2995.0, 2);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 2u);
  EXPECT_EQ(its[0].sigma, 1);
  EXPECT_EQ(its[1].sigma, 2);
  EXPECT_DOUBLE_EQ(its[1].h_min, 1950.0);  // queued arrival keeps its timestamp
}

TEST(NodeUnit, SigmaMajorityOverridesOwnOutlier) {
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0, 7);
  h.arrive(h.own_pred, 1002.0, 3);  // faulty own-chain label
  h.arrive(h.nbr_b, 1004.0, 7);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_EQ(its[0].sigma, 7);
}

TEST(NodeUnit, SigmaFallsBackToOwnWithoutMajority) {
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0, 5);
  h.arrive(h.own_pred, 1002.0, 6);
  h.arrive(h.nbr_b, 1004.0, 7);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_EQ(its[0].sigma, 6);
}

TEST(NodeUnit, SigmaContinuityBeatsByzantineOwnLabel) {
  // Regression: a Byzantine own copy with a drifting label plus one correct
  // neighbour and one missing message gives no majority. The node must
  // prefer continuity (last wave + 1) over the faulty own label, or the
  // whole downstream column stays mislabeled forever while timing is fine.
  NodeHarness h;
  // Wave 1: full majority on label 1 -> node's sequence starts at 1.
  h.arrive(h.nbr_a, 1000.0, 1);
  h.arrive(h.own_pred, 1002.0, 1);
  h.arrive(h.nbr_b, 1004.0, 1);
  // Wave 2: own copy lies (label 1 again), one neighbour silent.
  h.arrive(h.nbr_a, 3000.0, 2);
  h.arrive(h.own_pred, 3002.0, 1);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 2u);
  EXPECT_EQ(its[0].sigma, 1);
  EXPECT_EQ(its[1].sigma, 2);  // continuity wins over the faulty own label
}

TEST(NodeUnit, WatchdogClearsStaleFirstNeighbour) {
  // A lone neighbour message with nothing following within theta(2L+u)
  // local time is spurious and must be forgotten (Appendix C).
  GradientNodeConfig config;
  NodeHarness h(config);
  const double window =
      h.params.theta * (2.0 * h.params.thm11_bound(15) + h.params.u);
  h.arrive(h.nbr_a, 1000.0, 1);
  // Real wave arrives well after the watchdog window:
  const double t2 = 1000.0 + window + 500.0;
  h.arrive(h.nbr_a, t2, 2);
  h.arrive(h.own_pred, t2 + 2.0, 2);
  h.arrive(h.nbr_b, t2 + 4.0, 2);
  const auto& its = h.run();
  EXPECT_EQ(h.node->counters().watchdog_resets, 1u);
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].h_min, t2);  // the stale 1000.0 was cleared
  EXPECT_EQ(its[0].sigma, 2);
}

TEST(NodeUnit, CorruptionIntoCollectDropsTheArmedBroadcast) {
  // Scrambled while it waits to broadcast, into corrupt_state's collect
  // branch (which arms nothing): the broadcast armed before the fault must
  // go with the rest of the iteration's timers, not fire later as a no-op.
  // The seed is the first whose branch draw picks the collect branch;
  // corrupt_state draws the bogus wave label first.
  std::uint64_t seed = 1;
  for (;; ++seed) {
    Rng probe(seed);
    probe.uniform_int(-4, 4);
    if (probe.bernoulli(0.5)) break;
  }
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  h.sim.run_until(1500.0);  // collected; the broadcast is armed for ~2002
  ASSERT_EQ(h.sim.event_queue().pending_count(), 1u);
  Rng rng(seed);
  h.node->corrupt_state(rng);
  EXPECT_EQ(h.sim.event_queue().pending_count(), 0u);
  EXPECT_TRUE(h.run().empty());
}

TEST(NodeUnit, SteadyIterationKeepsOneQueueEntryAndCancelsNothingQueued) {
  // A steady iteration arms the watchdog, arms the until-timer and re-arms
  // it, then fires it and the broadcast. Its timers are deadlines carried
  // by one queue entry: it is scheduled once per firing, moved in place
  // by the re-arms and never cancelled in the queue. The node still counts
  // the two cancellations the timers stand for: the superseded until-timer
  // and the watchdog at the end of the collect phase.
  NodeHarness h;
  const std::vector<double> arrivals = {1000.0, 1002.0, 1004.0};
  h.arrive(h.nbr_a, arrivals[0]);
  h.arrive(h.own_pred, arrivals[1]);
  h.arrive(h.nbr_b, arrivals[2]);
  const EventQueue& q = h.sim.event_queue();
  while (!h.sim.idle()) {
    h.sim.run_until(h.sim.next_event_time());
    const auto undelivered = static_cast<std::size_t>(std::count_if(
        arrivals.begin(), arrivals.end(), [&](double t) { return t > h.sim.now(); }));
    EXPECT_LE(q.pending_count(), undelivered + 1) << "at t = " << h.sim.now();
  }
  ASSERT_EQ(h.recorder.iterations(h.self).size(), 1u);
  EXPECT_EQ(q.cancelled_count(), 0u);
  EXPECT_EQ(q.scheduled_count(), q.executed_count());
  EXPECT_EQ(q.executed_count(), 5u);  // three deliveries, the until-timer, the broadcast
  EXPECT_EQ(h.sim.timer_cancels(), 2u);
}

TEST(NodeUnit, SimplifiedModeWaitsForAllThree) {
  GradientNodeConfig config;
  config.simplified = true;
  NodeHarness h(config);
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1000.0 + 6.0 * k);  // would trigger full-mode timeout logic
  h.arrive(h.nbr_b, 1000.0 + 7.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_FALSE(its[0].timeout_branch);
  EXPECT_DOUBLE_EQ(its[0].h_max, 1000.0 + 7.0 * k);
}

TEST(NodeUnit, BroadcastOffsetShiftsPulse) {
  NodeHarness h({}, 123.0);
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1002.0 + h.lambda_minus_d() + 123.0);
}

TEST(NodeUnit, SendOverrideReplacesBroadcast) {
  NodeHarness h;
  int override_calls = 0;
  h.node->set_send_override([&override_calls](const Pulse&, SimTime) { ++override_calls; });
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  h.run();
  EXPECT_EQ(override_calls, 1);
  EXPECT_EQ(h.net.messages_sent(), 3u);  // only the injected arrivals
}

TEST(NodeUnit, JumpConditionOffUsesRawDelta) {
  GradientNodeConfig config;
  config.jump_condition = false;
  NodeHarness h(config);
  const double k = h.kappa();
  // Same wide-spread scenario as PositiveJumpNeedsWideNeighbourSpread:
  // raw Delta = 5k - k/2, undamped (vs. the clamp at theta k).
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_b, 1000.0 + 8.0 * k);
  h.arrive(h.own_pred, 1000.0 + 9.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_NEAR(its[0].correction, 4.5 * k, 1e-9);
  EXPECT_GT(its[0].correction, h.params.theta * k);
}

TEST(NodeUnit, ExactlyLambdaPeriodOverManyWaves) {
  NodeHarness h;
  const int waves = 10;
  for (int w = 1; w <= waves; ++w) {
    const double base = 1000.0 + (w - 1) * 2000.0;
    h.arrive(h.nbr_a, base, w);
    h.arrive(h.own_pred, base + 2.0, w);
    h.arrive(h.nbr_b, base + 4.0, w);
  }
  const auto& its = h.run();
  ASSERT_EQ(its.size(), static_cast<std::size_t>(waves));
  for (int w = 1; w < waves; ++w) {
    EXPECT_NEAR(its[static_cast<std::size_t>(w)].pulse_time -
                    its[static_cast<std::size_t>(w - 1)].pulse_time,
                2000.0, 1e-9);
  }
}

TEST(NodeUnit, DriftingClockStretchesWait) {
  // With a rate-theta clock, the local wait Lambda - d - C takes
  // (Lambda - d - C)/theta real time.
  GradientNodeConfig config;
  NodeHarness h(config);
  // Re-create the node with a fast clock.
  h.node.emplace(h.sim, h.net, h.self, HardwareClock(h.params.theta, 0.0), h.preds,
                 [&] {
                   GradientNodeConfig c;
                   c.params = h.params;
                   c.skew_bound_hint = h.params.thm11_bound(15);
                   return c;
                 }(),
                 0.0, &h.recorder, h.soa);
  h.net.set_sink(h.self, &*h.node);
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  const double wait = h.lambda_minus_d() - its[0].correction;
  EXPECT_NEAR(its[0].pulse_time, 1002.0 + wait / h.params.theta, 1e-9);
}

}  // namespace
}  // namespace gtrix
