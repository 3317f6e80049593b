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

TEST(Recorder, AnchoredStreamingKeepsTheFullPulseTrace) {
  // A corrupt streaming cell reads the same pulse trace full recording
  // keeps: feed both recorders the same pulses -- a gap, a backwards
  // prepend, an overwrite and a label shift -- and every read must agree.
  Recorder full;
  Recorder streaming;
  streaming.configure(RecordingMode::kStreaming);
  for (Recorder* rec : {&full, &streaming}) {
    rec->register_node(0, {});
    rec->register_node(1, {});
  }
  streaming.set_corruption_anchor();
  EXPECT_TRUE(streaming.corruption_anchored());
  const auto feed = [&](RecNodeId node, Sigma sigma, SimTime t) {
    IterationRecord it;
    it.sigma = sigma;
    for (Recorder* rec : {&full, &streaming}) {
      rec->record_pulse(node, sigma, t);
      rec->record_iteration(node, it);
    }
  };
  for (Sigma s = 5; s <= 40; ++s) {
    feed(0, s, static_cast<double>(s) * 10.0);
    if (s == 9) continue;  // node 1 never pulses at wave 9
    feed(1, s, static_cast<double>(s) * 10.0 + 1.0);
  }
  feed(1, 2, 21.0);    // backwards prepend
  feed(1, 12, 121.5);  // overwrite keeps the latest
  for (Recorder* rec : {&full, &streaming}) rec->shift_node_sigma(0, 3);

  for (RecNodeId node : {0u, 1u}) {
    SCOPED_TRACE(node);
    for (Sigma s = -1; s <= 45; ++s) {
      EXPECT_EQ(full.pulse_time(node, s), streaming.pulse_time(node, s)) << s;
    }
    for (Sigma warmup : {0, 1, 3, 20}) {
      EXPECT_EQ(full.steady_from(node, warmup), streaming.steady_from(node, warmup)) << warmup;
    }
    EXPECT_EQ(full.last_recorded(node), streaming.last_recorded(node));
  }
  EXPECT_FALSE(streaming.pulse_time(1, 9).has_value());
  EXPECT_EQ(streaming.pulse_time(1, 12), std::optional<SimTime>(121.5));
  EXPECT_EQ(streaming.steady_from(1, 0), 2);
  EXPECT_EQ(streaming.last_recorded(0), 43);
  EXPECT_EQ(full.min_sigma(), streaming.min_sigma());
  EXPECT_EQ(full.max_sigma(), streaming.max_sigma());
  EXPECT_EQ(full.pulse_count(), streaming.pulse_count());
  // Iteration records stay a full-recording feature.
  EXPECT_EQ(full.iterations(0).size(), 36u);
  EXPECT_TRUE(streaming.iterations(0).empty());
  EXPECT_TRUE(streaming.iterations(1).empty());
  // Node 0: 36 pulses; node 1: 35 in [5, 40], the prepended wave 2, and
  // the overwrite, which keeps one slot.
  EXPECT_EQ(streaming.anchored_pulse_count(), 36u + 36u);
  EXPECT_EQ(full.anchored_pulse_count(), 0u);
}

TEST(Recorder, StreamingModeKeepsNoPerWaveState) {
  Recorder rec;
  rec.configure(RecordingMode::kStreaming);
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
  EXPECT_THROW(rec.configure(RecordingMode::kStreaming), std::logic_error);
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
