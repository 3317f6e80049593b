#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "runner/campaign.hpp"

namespace gtrix {
namespace {

std::vector<ExperimentConfig> small_sweep() {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ExperimentConfig config;
    config.columns = 6;
    config.layers = 6;
    config.pulses = 10;
    config.seed = seed;
    if (seed % 2 == 0) {
      config.faults = {{3, 3, FaultSpec::crash()}};
    }
    configs.push_back(config);
  }
  return configs;
}

/// Bitwise comparison of the result fields that must reproduce exactly.
/// Skew numbers are doubles: equality here is intentional, the whole point
/// is that thread count must not perturb a single bit.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.skew.intra_by_layer.size(), b.skew.intra_by_layer.size());
  for (std::size_t l = 0; l < a.skew.intra_by_layer.size(); ++l) {
    EXPECT_EQ(std::memcmp(&a.skew.intra_by_layer[l], &b.skew.intra_by_layer[l],
                          sizeof(double)),
              0);
  }
  EXPECT_EQ(a.skew.max_intra, b.skew.max_intra);
  EXPECT_EQ(a.skew.max_inter, b.skew.max_inter);
  EXPECT_EQ(a.skew.local_skew, b.skew.local_skew);
  EXPECT_EQ(a.skew.global_skew, b.skew.global_skew);
  EXPECT_EQ(a.skew.pairs_checked, b.skew.pairs_checked);
  EXPECT_EQ(a.skew.pairs_skipped, b.skew.pairs_skipped);
  EXPECT_EQ(a.counters.iterations, b.counters.iterations);
  EXPECT_EQ(a.counters.late_broadcasts, b.counters.late_broadcasts);
  EXPECT_EQ(a.counters.timeout_branches, b.counters.timeout_branches);
  EXPECT_EQ(a.counters.events_executed, b.counters.events_executed);
  EXPECT_EQ(a.counters.messages_sent, b.counters.messages_sent);
  EXPECT_EQ(a.diameter, b.diameter);
}

TEST(ParallelForIndex, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  parallel_for_index(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForIndex, ZeroItemsIsANoop) {
  parallel_for_index(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForIndex, PropagatesWorkerExceptions) {
  EXPECT_THROW(
      parallel_for_index(8, 4,
                         [](std::size_t i) {
                           if (i == 5) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

/// Runs the sweep's configs through run_cell on `threads` pool workers.
std::vector<ExperimentResult> run_sweep(const std::vector<ExperimentConfig>& configs,
                                        unsigned threads) {
  std::vector<ExperimentResult> results(configs.size());
  parallel_for_index(configs.size(), threads,
                     [&](std::size_t i) { results[i] = run_cell(configs[i]); });
  return results;
}

TEST(ParallelForIndex, SingleAndMultiThreadRunsAreBitIdentical) {
  // The determinism contract: per-config results must not depend on the
  // worker count or on how experiments interleave across threads.
  const auto configs = small_sweep();
  const auto serial = run_sweep(configs, 1);
  const auto parallel4 = run_sweep(configs, 4);
  const auto parallel3 = run_sweep(configs, 3);
  ASSERT_EQ(serial.size(), parallel4.size());
  ASSERT_EQ(serial.size(), parallel3.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], parallel4[i]);
    expect_identical(serial[i], parallel3[i]);
  }
}

}  // namespace
}  // namespace gtrix
