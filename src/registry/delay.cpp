#include "registry/delay.hpp"

namespace gtrix {

namespace {

class UniformRandomDelay final : public DelayProvider {
 public:
  explicit UniformRandomDelay(double drift_amplitude) : drift_amplitude_(drift_amplitude) {}
  double sample(const DelayContext& ctx, Rng& rng) const override {
    return rng.uniform(ctx.d - ctx.u, ctx.d);
  }
  double drift_amplitude() const override { return drift_amplitude_; }

 private:
  double drift_amplitude_;
};

class AllMaxDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng&) const override { return ctx.d; }
};

class AllMinDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng&) const override { return ctx.d - ctx.u; }
};

class ColumnSplitDelay final : public DelayProvider {
 public:
  explicit ColumnSplitDelay(std::uint32_t split_column) : split_column_(split_column) {}
  double sample(const DelayContext& ctx, Rng&) const override {
    return ctx.from_column < split_column_ ? ctx.d - ctx.u : ctx.d;
  }

 private:
  std::uint32_t split_column_;
};

class AlternatingDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng&) const override {
    return (ctx.to_column % 2 == 0) ? ctx.d : ctx.d - ctx.u;
  }
};

class OwnSlowCrossFastDelay final : public DelayProvider {
 public:
  double sample(const DelayContext& ctx, Rng&) const override {
    return ctx.from_column == ctx.to_column ? ctx.d : ctx.d - ctx.u;
  }
};

void register_builtins(ComponentRegistry<DelayProvider>& reg) {
  reg.add("uniform-random", "i.i.d. uniform in [d-u, d] (default realistic model)",
          {{"drift_amplitude", ParamType::kDouble, Json(0.0),
            "Corollary 1.5 delay drift A: each send adds A/2 * sin(2 pi t / (30 Lambda) + "
            "0.7 e); needs A/2 < d - u",
            0.0}},
          [](const ComponentSpec& spec) {
            return std::make_shared<const UniformRandomDelay>(
                spec.params.at("drift_amplitude").as_double());
          });
  reg.add("all-max", "every edge at d", {},
          [](const ComponentSpec&) { return std::make_shared<const AllMaxDelay>(); });
  reg.add("all-min", "every edge at d-u", {},
          [](const ComponentSpec&) { return std::make_shared<const AllMinDelay>(); });
  reg.add("column-split",
          "edges leaving columns < split_column get d-u, others d (Fig. 1 adversary)",
          {{"split_column", ParamType::kInt, Json(0),
            "first column whose outgoing edges run at the maximum delay", 0}},
          [](const ComponentSpec& spec) {
            return std::make_shared<const ColumnSplitDelay>(
                static_cast<std::uint32_t>(spec.params.at("split_column").as_int()));
          });
  reg.add("alternating", "d / d-u alternating by destination-column parity", {},
          [](const ComponentSpec&) { return std::make_shared<const AlternatingDelay>(); });
  reg.add("own-slow-cross-fast",
          "own-copy edges d, cross edges d-u: consistent overshoot (Figure 5 scenario)", {},
          [](const ComponentSpec&) { return std::make_shared<const OwnSlowCrossFastDelay>(); });
}

}  // namespace

ComponentRegistry<DelayProvider>& delay_registry() {
  static ComponentRegistry<DelayProvider>* registry = [] {
    auto* reg = new ComponentRegistry<DelayProvider>("delay model");
    register_builtins(*reg);
    return reg;
  }();
  return *registry;
}

}  // namespace gtrix
