#include "registry/clock_model.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace gtrix {

namespace {

/// The four static models share one shape: pick a rate, then an initial
/// offset uniform in [0, Lambda). Draw order (rate first, offset second)
/// is part of the result contract: the committed BENCH_*.json runs depend
/// on it.
class StaticRateClock final : public ClockModelProvider {
 public:
  enum class Rate { kRandom, kFast, kSlow, kAlternating };
  explicit StaticRateClock(Rate rate) : rate_(rate) {}

  HardwareClock make(const ClockContext& ctx, Rng& rng) const override {
    const double theta = ctx.params.theta;
    double rate = 1.0;
    switch (rate_) {
      case Rate::kRandom: rate = rng.uniform(1.0, theta); break;
      case Rate::kFast: rate = theta; break;
      case Rate::kSlow: rate = 1.0; break;
      case Rate::kAlternating: rate = ctx.column % 2 == 0 ? 1.0 : theta; break;
    }
    const double offset = rng.uniform(0.0, ctx.params.lambda);
    return HardwareClock(rate, offset);
  }

 private:
  Rate rate_;
};

/// Bounded-drift random walk: the rate starts uniform in [1, theta] and
/// every `interval_waves * Lambda` of real time takes a uniform step of up
/// to `step * (theta - 1)`, clamped to [1, theta]. Models oscillators whose
/// speed wanders with temperature/voltage instead of staying fixed -- the
/// time-varying case the static models cannot express (cf. Corollary 1.5's
/// slowly-varying-rate assumption).
class DriftWalkClock final : public ClockModelProvider {
 public:
  DriftWalkClock(double interval_waves, double step)
      : interval_waves_(interval_waves), step_(step) {}

  HardwareClock make(const ClockContext& ctx, Rng& rng) const override {
    const double theta = ctx.params.theta;
    const double band = theta - 1.0;
    const double dt = interval_waves_ * ctx.params.lambda;
    double rate = rng.uniform(1.0, theta);
    std::vector<std::pair<SimTime, double>> schedule;
    schedule.emplace_back(0.0, rate);
    for (double t = dt; t < ctx.horizon; t += dt) {
      rate = std::clamp(rate + rng.uniform(-1.0, 1.0) * step_ * band, 1.0, theta);
      schedule.emplace_back(t, rate);
    }
    const double offset = rng.uniform(0.0, ctx.params.lambda);
    return HardwareClock(std::move(schedule), offset);
  }

 private:
  double interval_waves_;
  double step_;
};

void register_builtins(ComponentRegistry<ClockModelProvider>& reg) {
  reg.add("random-static", "per-node rate uniform in [1, theta] (paper default)", {},
          [](const ComponentSpec&) {
            return std::make_shared<const StaticRateClock>(StaticRateClock::Rate::kRandom);
          });
  reg.add("all-fast", "every clock at rate theta", {}, [](const ComponentSpec&) {
    return std::make_shared<const StaticRateClock>(StaticRateClock::Rate::kFast);
  });
  reg.add("all-slow", "every clock at rate 1", {}, [](const ComponentSpec&) {
    return std::make_shared<const StaticRateClock>(StaticRateClock::Rate::kSlow);
  });
  reg.add("alternating", "rate alternates 1 / theta by column (drift stress)", {},
          [](const ComponentSpec&) {
            return std::make_shared<const StaticRateClock>(StaticRateClock::Rate::kAlternating);
          });
  reg.add("drift-walk",
          "bounded random-walk rate in [1, theta]: time-varying drift the static models "
          "cannot express",
          {{"interval_waves", ParamType::kDouble, Json(1.0),
            "real time between rate steps, in units of Lambda"},
           {"step", ParamType::kDouble, Json(0.5),
            "max rate change per step as a fraction of the full [1, theta] band"}},
          [](const ComponentSpec& spec) {
            const double interval = spec.params.at("interval_waves").as_double();
            const double step = spec.params.at("step").as_double();
            // Lower bound keeps the per-clock schedule length sane: the
            // segment count is ~(pulses + layers) / interval_waves per node.
            if (interval < 0.01) {
              throw JsonError(
                  "drift-walk: interval_waves must be >= 0.01 (rate steps finer than "
                  "Lambda/100 explode the schedule)");
            }
            if (step < 0.0 || step > 1.0) {
              throw JsonError("drift-walk: step must be in [0, 1]");
            }
            return std::make_shared<const DriftWalkClock>(interval, step);
          });
}

}  // namespace

ComponentRegistry<ClockModelProvider>& clock_model_registry() {
  static ComponentRegistry<ClockModelProvider>* registry = [] {
    auto* reg = new ComponentRegistry<ClockModelProvider>("clock model");
    register_builtins(*reg);
    return reg;
  }();
  return *registry;
}

}  // namespace gtrix
