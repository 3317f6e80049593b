#include "metrics/recorder.hpp"

#include <gtest/gtest.h>

namespace gtrix {
namespace {

TEST(Recorder, RegisterAndQueryMeta) {
  Recorder rec;
  NodeMeta meta;
  meta.layer = 3;
  meta.column = 5;
  meta.faulty = true;
  rec.register_node(2, meta);
  EXPECT_EQ(rec.node_count(), 3u);
  EXPECT_EQ(rec.meta(2).layer, 3u);
  EXPECT_TRUE(rec.meta(2).faulty);
  EXPECT_FALSE(rec.meta(0).faulty);  // default-initialized gap
}

TEST(Recorder, PulseRoundTrip) {
  Recorder rec;
  rec.register_node(0, {});
  rec.record_pulse(0, 5, 123.0);
  EXPECT_EQ(rec.pulse_time(0, 5), std::optional<SimTime>(123.0));
  EXPECT_FALSE(rec.pulse_time(0, 4).has_value());
  EXPECT_FALSE(rec.pulse_time(0, 6).has_value());
  EXPECT_FALSE(rec.pulse_time(1, 5).has_value());
}

TEST(Recorder, SigmaRangeTracksGlobalExtremes) {
  Recorder rec;
  rec.register_node(0, {});
  rec.register_node(1, {});
  EXPECT_EQ(rec.min_sigma(), Recorder::kInvalidSigma);
  rec.record_pulse(0, 3, 1.0);
  rec.record_pulse(1, 7, 2.0);
  rec.record_pulse(0, -2, 3.0);
  EXPECT_EQ(rec.min_sigma(), -2);
  EXPECT_EQ(rec.max_sigma(), 7);
}

TEST(Recorder, GapsAreMissing) {
  Recorder rec;
  rec.register_node(0, {});
  rec.record_pulse(0, 1, 10.0);
  rec.record_pulse(0, 4, 40.0);
  EXPECT_TRUE(rec.pulse_time(0, 1).has_value());
  EXPECT_FALSE(rec.pulse_time(0, 2).has_value());
  EXPECT_FALSE(rec.pulse_time(0, 3).has_value());
  EXPECT_TRUE(rec.pulse_time(0, 4).has_value());
}

TEST(Recorder, BackwardsSigmaPrepends) {
  Recorder rec;
  rec.register_node(0, {});
  rec.record_pulse(0, 10, 100.0);
  rec.record_pulse(0, 7, 70.0);  // earlier wave recorded later
  EXPECT_EQ(rec.pulse_time(0, 7), std::optional<SimTime>(70.0));
  EXPECT_EQ(rec.pulse_time(0, 10), std::optional<SimTime>(100.0));
  EXPECT_FALSE(rec.pulse_time(0, 8).has_value());
}

TEST(Recorder, OverwriteKeepsLatest) {
  Recorder rec;
  rec.register_node(0, {});
  rec.record_pulse(0, 2, 20.0);
  rec.record_pulse(0, 2, 21.0);
  EXPECT_EQ(rec.pulse_time(0, 2), std::optional<SimTime>(21.0));
}

TEST(Recorder, SteadyFromSkipsWarmupPulses) {
  Recorder rec;
  rec.register_node(0, {});
  rec.record_pulse(0, 1, 1.0);
  rec.record_pulse(0, 3, 3.0);  // gap at 2
  rec.record_pulse(0, 4, 4.0);
  rec.record_pulse(0, 5, 5.0);
  EXPECT_EQ(rec.steady_from(0, 0), 1);
  EXPECT_EQ(rec.steady_from(0, 1), 3);  // gaps don't count
  EXPECT_EQ(rec.steady_from(0, 2), 4);
  EXPECT_EQ(rec.steady_from(0, 4), Recorder::kInvalidSigma);
}

TEST(Recorder, LastRecorded) {
  Recorder rec;
  rec.register_node(0, {});
  EXPECT_EQ(rec.last_recorded(0), Recorder::kInvalidSigma);
  rec.record_pulse(0, 2, 1.0);
  rec.record_pulse(0, 6, 2.0);
  EXPECT_EQ(rec.last_recorded(0), 6);
}

TEST(Recorder, IterationRecordsKeptInOrder) {
  Recorder rec;
  rec.register_node(0, {});
  IterationRecord a;
  a.sigma = 1;
  a.correction = 1.5;
  IterationRecord b;
  b.sigma = 2;
  b.correction = -0.5;
  rec.record_iteration(0, a);
  rec.record_iteration(0, b);
  const auto& records = rec.iterations(0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sigma, 1);
  EXPECT_DOUBLE_EQ(records[1].correction, -0.5);
}

TEST(Recorder, PulseCountAccumulates) {
  Recorder rec;
  rec.register_node(0, {});
  rec.register_node(1, {});
  rec.record_pulse(0, 1, 1.0);
  rec.record_pulse(1, 1, 1.0);
  rec.record_pulse(0, 2, 2.0);
  EXPECT_EQ(rec.pulse_count(), 3u);
}

TEST(Recorder, UnregisteredNodeThrows) {
  Recorder rec;
  EXPECT_THROW(rec.record_pulse(0, 1, 1.0), std::logic_error);
  IterationRecord r;
  EXPECT_THROW(rec.record_iteration(3, r), std::logic_error);
}

// --- memory-bounded (streaming) recording ------------------------------------

TEST(Recorder, AnchoredStreamingPinsTheBoxAndKeepsTheRollingTail) {
  // Window 4, corruption anchor at wave 2: the pin box is waves [-2, 6] and
  // the rolling tail is each node's last 4 wave slots.
  Recorder rec;
  RecordingOptions options;
  options.mode = RecordingMode::kStreaming;
  options.window = 4;
  rec.configure(options);
  rec.register_node(0, {});
  rec.register_node(1, {});
  rec.set_corruption_anchor(2);
  EXPECT_TRUE(rec.corruption_anchored());
  EXPECT_EQ(rec.corruption_anchor(), 2);
  for (Sigma s = 0; s <= 12; ++s) {
    IterationRecord it;
    it.sigma = s;
    rec.record_pulse(0, s, static_cast<double>(s) * 10.0);
    rec.record_iteration(0, it);
    if (s == 3) continue;  // node 1 never pulses at wave 3
    rec.record_pulse(1, s, static_cast<double>(s) * 10.0 + 1.0);
    rec.record_iteration(1, it);
  }
  // Waves 0..6 left the rolling tail inside the box: pinned and readable.
  for (Sigma s = 0; s <= 6; ++s) {
    EXPECT_EQ(rec.pulse_time(0, s), std::optional<SimTime>(static_cast<double>(s) * 10.0)) << s;
  }
  // Waves 9..12 are the rolling tail.
  for (Sigma s = 9; s <= 12; ++s) {
    EXPECT_EQ(rec.pulse_time(0, s), std::optional<SimTime>(static_cast<double>(s) * 10.0)) << s;
    EXPECT_EQ(rec.pulse_time(1, s), std::optional<SimTime>(static_cast<double>(s) * 10.0 + 1.0))
        << s;
  }
  // Waves 7 and 8 were evicted outside the box: lost, and reported as such.
  EXPECT_FALSE(rec.pulse_time(0, 7).has_value());
  EXPECT_FALSE(rec.pulse_time(0, 8).has_value());
  for (RecNodeId node : {0u, 1u}) {
    EXPECT_EQ(rec.lost_range(node), std::make_pair(Sigma{7}, Sigma{8})) << node;
    EXPECT_TRUE(rec.covers(node, 0, 6)) << node;
    EXPECT_TRUE(rec.covers(node, 9, 12)) << node;
    EXPECT_FALSE(rec.covers(node, 6, 7)) << node;
    EXPECT_FALSE(rec.covers(node, 8, 9)) << node;
  }
  // A wave the node never pulsed is neither pinned nor lost.
  EXPECT_FALSE(rec.pulse_time(1, 3).has_value());
  EXPECT_EQ(rec.pinned_pulse_count(), 7u + 6u);
  // The early-wave set answers steady_from after the run's start was evicted.
  EXPECT_EQ(rec.steady_from(0, 0), 0);
  EXPECT_EQ(rec.steady_from(1, 3), 4);
  EXPECT_EQ(rec.last_recorded(1), 12);
  // No iteration records in streaming mode, anchored or not.
  EXPECT_TRUE(rec.iterations(0).empty());
  EXPECT_TRUE(rec.iterations(1).empty());
  // The run envelope spans every recorded pulse.
  EXPECT_EQ(rec.min_sigma(), 0);
  EXPECT_EQ(rec.max_sigma(), 12);
  EXPECT_EQ(rec.pulse_count(), 13u + 12u);
}

TEST(Recorder, StreamingModeKeepsNoPerWaveState) {
  Recorder rec;
  RecordingOptions options;
  options.mode = RecordingMode::kStreaming;
  rec.configure(options);
  rec.register_node(0, {});
  rec.record_pulse(0, 3, 30.0);
  IterationRecord it;
  it.sigma = 3;
  rec.record_iteration(0, it);
  EXPECT_FALSE(rec.pulse_time(0, 3).has_value());
  EXPECT_TRUE(rec.iterations(0).empty());
  // ...but the run envelope and counts survive for default_window().
  EXPECT_EQ(rec.min_sigma(), 3);
  EXPECT_EQ(rec.max_sigma(), 3);
  EXPECT_EQ(rec.pulse_count(), 1u);
}

TEST(Recorder, ConfigureAfterRecordingThrows) {
  Recorder rec;
  rec.register_node(0, {});
  rec.record_pulse(0, 0, 0.0);
  RecordingOptions options;
  options.mode = RecordingMode::kStreaming;
  EXPECT_THROW(rec.configure(options), std::logic_error);
}

TEST(Recorder, RegisterNodeIdOverflowThrows) {
  Recorder rec;
  // The largest id would make the table size wrap past uint32.
  EXPECT_THROW(rec.register_node(std::numeric_limits<std::uint32_t>::max(), {}),
               std::logic_error);
}

TEST(Recorder, RecordingModeNames) {
  EXPECT_EQ(to_string(RecordingMode::kFull), "full");
  EXPECT_EQ(to_string(RecordingMode::kStreaming), "streaming");
}

}  // namespace
}  // namespace gtrix
