// Experiment E12: engine microbenchmarks (google-benchmark).
#include <benchmark/benchmark.h>

#include "core/correction.hpp"
#include "runner/experiment.hpp"
#include "sim/event_queue.hpp"
#include "support/rng.hpp"

namespace gtrix {
namespace {

/// Counting target for the engine microbenchmarks.
struct CountingTarget final : TimerTarget {
  std::uint64_t fired = 0;
  void on_timer(const Event& /*event*/) override { ++fired; }
};

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    EventQueue q;
    CountingTarget target;
    for (double t : times) q.schedule(t, &target, 0);
    while (q.run_next()) {
    }
    benchmark::DoNotOptimize(target.fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

/// Steady-state schedule+fire throughput (events/sec): a fixed window of
/// pending events slides forward, so every schedule reuses a recycled slot
/// and performs no allocation. This is the engine's hot path in grid runs.
void BM_EventEngineScheduleFire(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  EventQueue q;
  CountingTarget target;
  double t = 0.0;
  for (std::size_t i = 0; i < window; ++i) q.schedule(t += 1.0, &target, 0);
  for (auto _ : state) {
    q.run_next();              // fire the oldest event...
    q.schedule(t += 1.0, &target, 0);  // ...and refill the window
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["slot_capacity"] =
      static_cast<double>(q.slot_capacity());  // must equal the window size
}
BENCHMARK(BM_EventEngineScheduleFire)->Arg(16)->Arg(1024)->Arg(65536);

/// Schedule+cancel throughput: every scheduled event is cancelled, and
/// unlinked from its bucket, before it can fire. Slots must be recycled
/// immediately (O(pending) memory), so this also measures the freelist
/// turnaround.
void BM_EventEngineScheduleCancel(benchmark::State& state) {
  EventQueue q;
  CountingTarget target;
  double t = 0.0;
  for (auto _ : state) {
    const TimerHandle h = q.schedule(t += 1.0, &target, 0);
    benchmark::DoNotOptimize(q.cancel(h));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["slot_capacity"] = static_cast<double>(q.slot_capacity());
}
BENCHMARK(BM_EventEngineScheduleCancel);

void BM_ComputeCorrection(benchmark::State& state) {
  const Params params = Params::with(1000.0, 10.0, 1.0005);
  Rng rng(2);
  std::vector<std::array<double, 3>> inputs(256);
  for (auto& in : inputs) {
    const double own = rng.uniform(0.0, 100.0);
    const double a = rng.uniform(-200.0, 200.0);
    const double b = rng.uniform(-200.0, 200.0);
    in = {own, own + std::min(a, b), own + std::max(a, b)};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& in = inputs[i++ % inputs.size()];
    benchmark::DoNotOptimize(compute_correction(in[0], in[1], in[2], params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ComputeCorrection);

void BM_FullGridPulse(benchmark::State& state) {
  // Cost of simulating one full grid wave (per-pulse amortized).
  const auto columns = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    ExperimentConfig config;
    config.columns = columns;
    config.layers = columns;
    config.pulses = 10;
    config.seed = 3;
    World world(config);
    world.run_to_completion();
    benchmark::DoNotOptimize(world.counters().iterations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_FullGridPulse)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gtrix

BENCHMARK_MAIN();
